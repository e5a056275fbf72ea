//! Asynchronous quantization worker — the software analogue of the paper's
//! low-priority CUDA stream.
//!
//! During decoding, freshly generated keys/values are staged densely in the
//! recent window of each layer's [`million_kvcache::PqKvCache`]. Instead of
//! encoding them on the critical path, the session ships them to this worker;
//! the worker encodes them into PQ codes and posts the result back. Sessions
//! absorb finished blocks at the *start of the next decode step*, which
//! mirrors the paper's observation that cached codes are not needed until the
//! next token's attention — so quantization never blocks decoding and
//! attention never misses a token (the dense copy stays visible until the
//! codes arrive).
//!
//! One worker can serve many concurrent [`crate::InferenceSession`]s: every
//! request and result carries a `session` tag, and the
//! [`crate::ServingEngine`] routes finished blocks back to the session that
//! submitted them.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use million_kvcache::pq_cache::EncodedTokens;
use million_kvcache::{CacheLayout, PqKvCache};
use million_quant::pq::PqCodebook;
use million_tensor::Matrix;

/// A request to encode a block of dense keys/values belonging to one layer of
/// one session.
#[derive(Debug, Clone)]
pub struct EncodeRequest {
    /// Session the block belongs to (0 for a standalone session).
    pub session: usize,
    /// Layer the block belongs to.
    pub layer: usize,
    /// `[tokens, n_kv_heads * head_dim]` keys (positional embedding applied).
    pub keys: Matrix,
    /// `[tokens, n_kv_heads * head_dim]` values.
    pub values: Matrix,
}

/// A finished encode job.
#[derive(Debug, Clone)]
pub struct EncodeResult {
    /// Session the block belongs to (0 for a standalone session).
    pub session: usize,
    /// Layer the block belongs to.
    pub layer: usize,
    /// Number of tokens encoded.
    pub tokens: usize,
    /// The per-head PQ codes, ready to be absorbed by the layer's cache.
    pub encoded: EncodedTokens,
}

/// Background PQ-encoding worker with per-layer codebooks, shared by one or
/// more sessions of the same engine.
#[derive(Debug)]
pub struct QuantWorker {
    request_tx: Option<Sender<EncodeRequest>>,
    result_rx: Receiver<EncodeResult>,
    handle: Option<JoinHandle<()>>,
    in_flight: usize,
}

impl QuantWorker {
    /// Spawns the worker thread.
    ///
    /// # Panics
    ///
    /// Panics if the codebook vectors are empty or of different lengths.
    pub fn spawn(
        key_codebooks: Vec<Arc<PqCodebook>>,
        value_codebooks: Vec<Arc<PqCodebook>>,
        layout: CacheLayout,
    ) -> Self {
        assert!(!key_codebooks.is_empty(), "at least one layer required");
        assert_eq!(
            key_codebooks.len(),
            value_codebooks.len(),
            "key/value codebook count mismatch"
        );
        let (request_tx, request_rx) = channel::<EncodeRequest>();
        let (result_tx, result_rx) = channel::<EncodeResult>();
        let handle = std::thread::Builder::new()
            .name("million-quant-worker".into())
            .spawn(move || {
                while let Ok(req) = request_rx.recv() {
                    let encoded = PqKvCache::encode_tokens(
                        &key_codebooks[req.layer],
                        &value_codebooks[req.layer],
                        &layout,
                        &req.keys,
                        &req.values,
                    );
                    let result = EncodeResult {
                        session: req.session,
                        layer: req.layer,
                        tokens: req.keys.rows(),
                        encoded,
                    };
                    if result_tx.send(result).is_err() {
                        break;
                    }
                }
            })
            .expect("failed to spawn quantization worker");
        Self {
            request_tx: Some(request_tx),
            result_rx,
            handle: Some(handle),
            in_flight: 0,
        }
    }

    /// Number of submitted blocks whose results have not been drained yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Submits a block for background encoding.
    ///
    /// # Panics
    ///
    /// Panics if the worker has already been shut down.
    pub fn submit(&mut self, request: EncodeRequest) {
        self.request_tx
            .as_ref()
            .expect("worker already shut down")
            .send(request)
            .expect("quantization worker disappeared");
        self.in_flight += 1;
    }

    /// Collects every finished block without waiting.
    pub fn try_drain(&mut self) -> Vec<EncodeResult> {
        let mut out = Vec::new();
        while let Ok(result) = self.result_rx.try_recv() {
            self.in_flight -= 1;
            out.push(result);
        }
        out
    }

    /// Blocks until every submitted block has been encoded and returns the
    /// remaining results.
    pub fn drain_all(&mut self) -> Vec<EncodeResult> {
        let mut out = Vec::new();
        while self.in_flight > 0 {
            match self.result_rx.recv() {
                Ok(result) => {
                    self.in_flight -= 1;
                    out.push(result);
                }
                Err(_) => break,
            }
        }
        out
    }
}

impl Drop for QuantWorker {
    fn drop(&mut self) {
        // Closing the request channel lets the worker loop exit.
        self.request_tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use million_quant::pq::{PqConfig, PqTrainOptions};
    use million_tensor::init::{normal_matrix, seeded_rng};

    fn codebook(seed: u64, dim: usize) -> Arc<PqCodebook> {
        let mut rng = seeded_rng(seed);
        let samples = normal_matrix(&mut rng, 256, dim, 0.0, 1.0);
        Arc::new(
            PqCodebook::train(
                &PqConfig::new(4, 4).unwrap(),
                &samples,
                &PqTrainOptions::default(),
                seed,
            )
            .unwrap(),
        )
    }

    #[test]
    fn worker_encodes_submitted_blocks() {
        let layout = CacheLayout::new(2, 8);
        let kc = codebook(0, 8);
        let vc = codebook(1, 8);
        let mut worker = QuantWorker::spawn(vec![kc.clone(), kc], vec![vc.clone(), vc], layout);

        let mut rng = seeded_rng(2);
        let keys = normal_matrix(&mut rng, 5, 16, 0.0, 1.0);
        let values = normal_matrix(&mut rng, 5, 16, 0.0, 1.0);
        worker.submit(EncodeRequest {
            session: 0,
            layer: 1,
            keys,
            values,
        });
        assert_eq!(worker.in_flight(), 1);
        let results = worker.drain_all();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].layer, 1);
        assert_eq!(results[0].tokens, 5);
        assert_eq!(results[0].encoded.key_codes.len(), 2);
        assert_eq!(worker.in_flight(), 0);
    }

    #[test]
    fn background_encoding_matches_synchronous_encoding() {
        let layout = CacheLayout::new(1, 8);
        let kc = codebook(3, 8);
        let vc = codebook(4, 8);
        let mut worker = QuantWorker::spawn(vec![kc.clone()], vec![vc.clone()], layout);

        let mut rng = seeded_rng(5);
        let keys = normal_matrix(&mut rng, 12, 8, 0.0, 1.0);
        let values = normal_matrix(&mut rng, 12, 8, 0.0, 1.0);
        worker.submit(EncodeRequest {
            session: 0,
            layer: 0,
            keys: keys.clone(),
            values: values.clone(),
        });
        let background = worker.drain_all().pop().unwrap().encoded;
        let sync = PqKvCache::encode_tokens(&kc, &vc, &layout, &keys, &values);
        let mut a = vec![0u16; 4];
        let mut b = vec![0u16; 4];
        for t in 0..12 {
            background.key_codes[0].read_into(t, &mut a);
            sync.key_codes[0].read_into(t, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn session_tags_round_trip_through_the_worker() {
        let layout = CacheLayout::new(1, 8);
        let mut worker = QuantWorker::spawn(vec![codebook(10, 8)], vec![codebook(11, 8)], layout);
        let mut rng = seeded_rng(12);
        for session in [3usize, 7, 5] {
            worker.submit(EncodeRequest {
                session,
                layer: 0,
                keys: normal_matrix(&mut rng, 2, 8, 0.0, 1.0),
                values: normal_matrix(&mut rng, 2, 8, 0.0, 1.0),
            });
        }
        let mut tags: Vec<usize> = worker.drain_all().iter().map(|r| r.session).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![3, 5, 7]);
    }

    #[test]
    fn try_drain_on_empty_worker_returns_nothing() {
        let layout = CacheLayout::new(1, 8);
        let mut worker = QuantWorker::spawn(vec![codebook(6, 8)], vec![codebook(7, 8)], layout);
        assert!(worker.try_drain().is_empty());
    }

    #[test]
    fn dropping_worker_shuts_down_cleanly() {
        let layout = CacheLayout::new(1, 8);
        let worker = QuantWorker::spawn(vec![codebook(8, 8)], vec![codebook(9, 8)], layout);
        drop(worker);
    }
}
