//! Session persistence: serialize a session's paged PQ cache to disk and
//! restore it for bit-identical continuation.
//!
//! The on-disk payload is dominated by the packed PQ codes — already the
//! compressed wire format — framed by the binary codec in
//! [`million_store::persist`]. A snapshot carries the sealed block chain,
//! each layer's private code tail, the dense residual window, and the decode
//! front (pending token + current logits, or the prompt an open admission
//! has still to feed), so a restored session's next
//! [`crate::InferenceSession::step`] or
//! [`crate::InferenceSession::prefill_chunk`] performs the identical
//! arithmetic the original session would have.
//!
//! ## Format v3 (`MLNSES03`)
//!
//! The 8-byte magic is followed by six CRC32-framed sections (each
//! `[len u64][crc32 u32][payload]`, see `million_store::persist`):
//! header (engine geometry + PQ configs), history, sealed blocks, private
//! code tails, dense recent windows, and the decode front, which ends with
//! the open admission's unfed prompt (empty when none is open). Every
//! write goes through `atomic_write` (temp file + fsync + rename), so a
//! crash mid-write never leaves a torn snapshot at the destination path,
//! and any flipped byte or truncation inside a section surfaces on restore
//! as a typed [`MillionError::Persist`] — never a panic or a silent
//! misread.
//!
//! Restoring into an engine whose store already holds blocks of the same
//! token chain **re-attaches** them instead of duplicating codes (the
//! content-addressed index recognises the chain), so persisted sessions keep
//! participating in prefix sharing. With the store disabled — or a different
//! block granularity — the sealed blocks are folded back into private code
//! tails instead.
//!
//! ## Request checkpoints (`MLNCKPT3`)
//!
//! `request-<id>.ckpt`, the only on-disk form of an in-flight serving
//! request: the magic, a CRC-framed request section (id, class, budget, stop
//! criteria, sampler state, streamed tokens) and a CRC-framed `MLNSES03`
//! snapshot, which holds the unfed prompt of a request checkpointed
//! mid-admission. Earlier versions — `MLNSES01` (unframed), `MLNSES02` and
//! `MLNCKPT1` (no unfed prompt), `MLNCKPT2` (an `MLNSES02` inside) — are
//! retired: a restore names them in a typed error.

// A panic on the snapshot path loses committed state; errors are typed.
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

use std::path::Path;

use million_model::{Sampler, SamplerState};
use million_quant::pq::{PqCodes, PqConfig};
use million_store::persist::{
    atomic_write, put_block, put_codes, put_f32_slice, put_section, put_u32, put_u32_slice,
    put_u64, PersistError, Reader,
};
use million_store::Block;

use crate::engine::MillionEngine;
use crate::serving::{QosClass, Request, RequestId};
use crate::session::{GenerationOptions, InferenceSession, StopCriteria};
use crate::MillionError;

const MAGIC: &[u8; 8] = b"MLNSES03";
const CKPT_MAGIC: &[u8; 8] = b"MLNCKPT3";

/// Accepts `expected`. An earlier version of the same format is named in
/// the error as retired; any other magic is `bad`.
fn check_magic(magic: &[u8; 8], expected: &[u8; 8], bad: &str) -> Result<(), PersistError> {
    if magic == expected {
        return Ok(());
    }
    let stem = expected.iter().take_while(|b| !b.is_ascii_digit()).count();
    let ((name, version), (own_name, own_version)) =
        (magic.split_at(stem), expected.split_at(stem));
    Err(PersistError::Corrupt(
        if name == own_name && version < own_version {
            let magic = String::from_utf8_lossy(magic);
            format!("{magic} is a retired format and is no longer readable")
        } else {
            bad.to_string()
        },
    ))
}

/// A serving request as its checkpoint records it — everything
/// [`crate::ServingEngine::recover`] needs to seat it in a slot again.
pub(crate) struct Checkpoint<'e> {
    pub(crate) id: RequestId,
    /// Class, token budget, stop criteria and sampler state. `prompt` is
    /// empty: a request checkpointed mid-admission carries its unfed
    /// tokens in `session`. Deadlines are not persisted.
    pub(crate) request: Request,
    /// Tokens streamed before the checkpoint.
    pub(crate) tokens: Vec<u32>,
    pub(crate) session: InferenceSession<'e>,
}

/// A presence flag, then the value if present.
fn put_opt_u32(out: &mut Vec<u8>, value: Option<u32>) {
    out.push(u8::from(value.is_some()));
    value.into_iter().for_each(|v| put_u32(out, v));
}

fn get_opt_u32(r: &mut Reader) -> Result<Option<u32>, PersistError> {
    Ok(if r.get_u8()? == 1 {
        Some(r.get_u32()?)
    } else {
        None
    })
}

fn expect_exhausted(r: &Reader, section: &str) -> Result<(), PersistError> {
    r.is_exhausted()
        .then_some(())
        .ok_or_else(|| PersistError::Corrupt(format!("trailing bytes in {section} section")))
}

/// Per-head rows of one layer's dense recent window (keys, values).
type DenseLayer = (Vec<Vec<f32>>, Vec<Vec<f32>>);

/// Bit-exact content equality of two sealed blocks (geometry plus every
/// packed code byte).
fn blocks_equal(a: &Block, b: &Block) -> bool {
    a.len() == b.len()
        && a.n_layers() == b.n_layers()
        && a.n_kv_heads() == b.n_kv_heads()
        && a.all_key_codes()
            .iter()
            .zip(b.all_key_codes())
            .all(|(x, y)| x.packed_bytes() == y.packed_bytes())
        && a.all_value_codes()
            .iter()
            .zip(b.all_value_codes())
            .all(|(x, y)| x.packed_bytes() == y.packed_bytes())
}

impl InferenceSession<'_> {
    /// Writes the session's cache state to `path` (flushing the
    /// asynchronous quantization stream first, so the snapshot is the
    /// steady state).
    ///
    /// The sampler is *not* persisted — a restored session starts with the
    /// default greedy sampler; re-set a custom one with
    /// [`InferenceSession::set_sampler`]. An open admission is: a session
    /// persisted between the chunks of one keeps its fed tokens dense and
    /// records the unfed ones, so once restored its further
    /// [`InferenceSession::prefill_chunk`] calls finish the same one
    /// prefill, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be written. The
    /// write is atomic: the bytes land in a temporary sibling, are fsynced,
    /// and are renamed over `path` — a crash mid-write never leaves a torn
    /// snapshot behind.
    pub fn persist<P: AsRef<Path>>(&mut self, path: P) -> std::io::Result<()> {
        self.flush();
        atomic_write(path.as_ref(), &self.encode())
    }

    /// The encoded snapshot bytes, after flushing the asynchronous
    /// quantization stream.
    pub(crate) fn snapshot_bytes(&mut self) -> Vec<u8> {
        self.flush();
        self.encode()
    }

    /// Encodes the request checkpoint (`MLNCKPT3`) of the serving request
    /// this session runs: `request` carries its class, budget, stop
    /// criteria and sampler (its `prompt` is not written: the session holds
    /// whatever is unfed); `tokens` are the ones already streamed. The
    /// inverse is [`MillionEngine::decode_checkpoint`].
    pub(crate) fn checkpoint_bytes(
        &mut self,
        id: RequestId,
        request: &Request,
        tokens: &[u32],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CKPT_MAGIC);
        let mut body = Vec::new();
        put_u64(&mut body, id.as_u64());
        body.push(request.class.index() as u8);
        put_u64(&mut body, request.options.max_new_tokens as u64);
        put_opt_u32(&mut body, request.options.stop.eos_id);
        put_u32_slice(&mut body, &request.options.stop.stop_ids);
        match request.sampler.state() {
            SamplerState::Greedy => body.push(0),
            SamplerState::TopK {
                temperature,
                top_k,
                seed,
                draws,
            } => {
                body.push(1);
                put_u32(&mut body, temperature.to_bits());
                put_u64(&mut body, top_k as u64);
                put_u64(&mut body, seed);
                put_u64(&mut body, draws);
            }
        }
        put_u32_slice(&mut body, tokens);
        put_section(&mut out, &body);
        put_section(&mut out, &self.snapshot_bytes());
        out
    }

    fn encode(&self) -> Vec<u8> {
        let engine = self.engine();
        let layout = engine.model().cache_layout();
        // A built engine always has per-layer codebooks; the zeroed
        // fallback keeps the encoder panic-free and produces a header the
        // decoder rejects as a configuration mismatch.
        let fallback = PqConfig { m: 0, nbits: 0 };
        let key_config = engine
            .codebooks()
            .key
            .first()
            .map_or(fallback, |c| c.config());
        let value_config = engine
            .codebooks()
            .value
            .first()
            .map_or(fallback, |c| c.config());
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);

        // Header: engine geometry and PQ configuration.
        let mut body = Vec::new();
        put_u32(&mut body, engine.config().block_tokens as u32);
        put_u32(&mut body, self.caches.len() as u32);
        put_u32(&mut body, layout.n_kv_heads as u32);
        put_u32(&mut body, layout.head_dim as u32);
        put_u32(&mut body, key_config.m as u32);
        body.push(key_config.nbits);
        put_u32(&mut body, value_config.m as u32);
        body.push(value_config.nbits);
        put_section(&mut out, &body);

        // Token history.
        body.clear();
        put_u32_slice(&mut body, &self.history);
        put_section(&mut out, &body);

        // Sealed block chain.
        body.clear();
        let blocks = self.chain.as_ref().map_or(&[][..], |c| c.blocks());
        put_u32(&mut body, blocks.len() as u32);
        for (_, block) in blocks {
            put_block(&mut body, block);
        }
        put_section(&mut out, &body);

        // Per-layer private code tails.
        body.clear();
        for cache in &self.caches {
            for codes in cache
                .private_key_codes()
                .iter()
                .chain(cache.private_value_codes())
            {
                put_codes(&mut body, codes);
            }
        }
        put_section(&mut out, &body);

        // Per-layer dense recent windows.
        body.clear();
        for cache in &self.caches {
            for row in cache
                .recent_key_rows()
                .iter()
                .chain(cache.recent_value_rows())
            {
                put_f32_slice(&mut body, row);
            }
        }
        put_section(&mut out, &body);

        // Decode front.
        body.clear();
        put_u64(&mut body, self.prompt_tokens as u64);
        put_u32_slice(&mut body, &self.generated);
        put_opt_u32(&mut body, self.pending);
        match &self.cur_logits {
            Some(logits) => {
                body.push(1);
                put_f32_slice(&mut body, logits);
            }
            None => body.push(0),
        }
        put_u64(&mut body, self.prefix_reused as u64);
        put_u32_slice(&mut body, &self.unfed);
        put_section(&mut out, &body);
        out
    }
}

impl MillionEngine {
    /// Restores a session persisted with [`InferenceSession::persist`].
    ///
    /// The snapshot must have been produced by an engine with the same
    /// geometry (layers, heads, head dimension, PQ configuration) **and the
    /// same weights and codebooks** — continuation is only meaningful, and
    /// the store's content addressing only sound, for the engine that
    /// encoded the codes. Geometry is validated; weight identity is the
    /// caller's contract.
    ///
    /// # Errors
    ///
    /// Returns [`MillionError::Persist`] if the file cannot be read, is
    /// corrupt, disagrees with this engine's geometry, or holds a value the
    /// model cannot serve (a pending token outside the vocabulary, logits
    /// of another width, a cache longer than the context window, an unfed
    /// prompt token outside the vocabulary or running past the window).
    pub fn restore_session<P: AsRef<Path>>(
        &self,
        path: P,
    ) -> Result<InferenceSession<'_>, MillionError> {
        let bytes = std::fs::read(path)
            .map_err(|e| MillionError::Persist(format!("cannot read snapshot: {e}")))?;
        self.restore_session_bytes(&bytes)
    }

    /// Restores a session from already-read snapshot bytes — the same
    /// decode path as [`MillionEngine::restore_session`], exposed for
    /// callers (fault-injection harnesses) that manage the I/O themselves.
    ///
    /// # Errors
    ///
    /// Returns [`MillionError::Persist`] on any malformed input: truncation
    /// at any byte, a checksum mismatch in any section, a geometry
    /// disagreement with this engine, or a value the model cannot serve.
    pub fn restore_session_bytes(
        &self,
        bytes: &[u8],
    ) -> Result<InferenceSession<'_>, MillionError> {
        self.decode_session(bytes)
            .map_err(|e| MillionError::Persist(e.to_string()))
    }

    /// Decodes a request checkpoint written by
    /// [`InferenceSession::checkpoint_bytes`]. Beyond the session snapshot's
    /// own checks, the request must have a position left to generate into
    /// ([`crate::ServingEngine::submit`]'s window rule) and a decoding
    /// request must carry logits to sample, so a recovered request can
    /// never panic its first serve round.
    pub(crate) fn decode_checkpoint(&self, bytes: &[u8]) -> Result<Checkpoint<'_>, PersistError> {
        let corrupt = PersistError::Corrupt;
        let (magic, rest) = bytes
            .split_first_chunk::<8>()
            .ok_or(PersistError::Truncated)?;
        let mut r = Reader::new(rest);
        check_magic(magic, CKPT_MAGIC, "bad checkpoint magic")?;

        let mut m = Reader::new(r.get_section()?);
        let id = RequestId::from_u64(m.get_len()? as u64);
        let class_tag = m.get_u8()?;
        let class = *QosClass::ALL
            .get(usize::from(class_tag))
            .ok_or_else(|| corrupt(format!("unknown QoS class tag {class_tag}")))?;
        let max_new_tokens = m.get_len()?;
        let eos_id = get_opt_u32(&mut m)?;
        let stop_ids = m.get_u32_slice()?;
        let sampler = match m.get_u8()? {
            0 => Sampler::greedy(),
            1 => {
                let temperature = f32::from_bits(m.get_u32()?);
                let top_k = m.get_len()?;
                let seed = m.get_len()? as u64;
                let draws = m.get_len()? as u64;
                if !temperature.is_finite() || temperature <= 0.0 || top_k == 0 {
                    return Err(corrupt(format!(
                        "checkpoint sampler state is unservable \
                         (temperature {temperature}, top_k {top_k})"
                    )));
                }
                Sampler::from_state(&SamplerState::TopK {
                    temperature,
                    top_k,
                    seed,
                    draws,
                })
            }
            kind => return Err(corrupt(format!("unknown sampler kind tag {kind}"))),
        };
        let tokens = m.get_u32_slice()?;
        expect_exhausted(&m, "checkpoint request")?;
        let mut session = self.decode_session(r.get_section()?)?;
        expect_exhausted(&r, "checkpoint")?;

        // The next serve round feeds the unfed prompt or samples the logits
        // and feeds the pending token.
        let unfed = session.unfed_prompt_tokens();
        let unservable = if session.cached_tokens() + unfed >= self.model().config().max_seq_len {
            Some("no position is left in the context window")
        } else if unfed == 0 && session.cur_logits.is_none() {
            Some("a decoding request carries no logits")
        } else {
            None
        };
        if let Some(reason) = unservable {
            return Err(corrupt(format!("unservable checkpoint: {reason}")));
        }
        session.id = id.as_u64() as usize;
        Ok(Checkpoint {
            id,
            request: Request {
                prompt: Vec::new(),
                options: GenerationOptions {
                    max_new_tokens,
                    stop: StopCriteria { eos_id, stop_ids },
                },
                sampler,
                class,
                deadline_ms: None,
            },
            tokens,
            session,
        })
    }

    fn decode_session(&self, bytes: &[u8]) -> Result<InferenceSession<'_>, PersistError> {
        let corrupt = |msg: &str| PersistError::Corrupt(msg.to_string());
        let (magic, rest) = bytes
            .split_first_chunk::<8>()
            .ok_or(PersistError::Truncated)?;
        let mut r = Reader::new(rest);
        check_magic(magic, MAGIC, "bad magic")?;

        let mut h = Reader::new(r.get_section()?);
        let snapshot_bt = h.get_u32()? as usize;
        let layout = self.model().cache_layout();
        let n_layers = h.get_u32()? as usize;
        let n_kv_heads = h.get_u32()? as usize;
        let head_dim = h.get_u32()? as usize;
        if n_layers != self.model().config().n_layers
            || n_kv_heads != layout.n_kv_heads
            || head_dim != layout.head_dim
        {
            return Err(corrupt("model geometry mismatch"));
        }
        let read_config = |r: &mut Reader| -> Result<PqConfig, PersistError> {
            let m = r.get_u32()? as usize;
            let nbits = r.get_u8()?;
            PqConfig::new(m, nbits).map_err(|e| PersistError::Corrupt(e.to_string()))
        };
        let key_config = read_config(&mut h)?;
        let value_config = read_config(&mut h)?;
        let own_key = self.codebooks().key.first().map(|c| c.config());
        let own_value = self.codebooks().value.first().map(|c| c.config());
        if own_key != Some(key_config) || own_value != Some(value_config) {
            return Err(corrupt("PQ configuration mismatch"));
        }
        expect_exhausted(&h, "header")?;

        let mut s = Reader::new(r.get_section()?);
        let history = s.get_u32_slice()?;
        expect_exhausted(&s, "history")?;

        let mut s = Reader::new(r.get_section()?);
        let n_blocks = s.get_u32()? as usize;
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let block = s.get_block()?;
            if block.n_layers() != n_layers || block.n_kv_heads() != n_kv_heads {
                return Err(corrupt("sealed block geometry mismatch"));
            }
            for layer in 0..n_layers {
                for h in 0..n_kv_heads {
                    if block.key_codes(layer, h).config() != key_config
                        || block.value_codes(layer, h).config() != value_config
                    {
                        return Err(corrupt("sealed block code configuration mismatch"));
                    }
                }
            }
            blocks.push(block);
        }
        expect_exhausted(&s, "block")?;

        // Per-layer private tails and dense windows: every code sequence and
        // dense row is validated here (config, equal lengths across heads
        // and layers) so a corrupt snapshot surfaces as an error instead of
        // tripping cache-construction assertions later.
        let mut s = Reader::new(r.get_section()?);
        let mut private: Vec<(Vec<PqCodes>, Vec<PqCodes>)> = Vec::with_capacity(n_layers);
        let mut private_len = None;
        for _ in 0..n_layers {
            let mut keys = Vec::with_capacity(n_kv_heads);
            let mut values = Vec::with_capacity(n_kv_heads);
            for _ in 0..n_kv_heads {
                keys.push(s.get_codes()?);
            }
            for _ in 0..n_kv_heads {
                values.push(s.get_codes()?);
            }
            let first_len = keys.first().map_or(0, |c| c.len());
            let len = *private_len.get_or_insert(first_len);
            let keys_ok = keys
                .iter()
                .all(|c| c.config() == key_config && c.len() == len);
            let values_ok = values
                .iter()
                .all(|c| c.config() == value_config && c.len() == len);
            if !keys_ok || !values_ok {
                return Err(corrupt("private code tail is ragged or misconfigured"));
            }
            private.push((keys, values));
        }
        expect_exhausted(&s, "private tail")?;

        let mut s = Reader::new(r.get_section()?);
        let mut dense: Vec<DenseLayer> = Vec::with_capacity(n_layers);
        let mut dense_len = None;
        for _ in 0..n_layers {
            let mut keys = Vec::with_capacity(n_kv_heads);
            let mut values = Vec::with_capacity(n_kv_heads);
            for _ in 0..n_kv_heads {
                keys.push(s.get_f32_slice()?);
            }
            for _ in 0..n_kv_heads {
                values.push(s.get_f32_slice()?);
            }
            let first_len = keys.first().map_or(0, |row| row.len());
            let len = *dense_len.get_or_insert(first_len);
            if !len.is_multiple_of(head_dim)
                || keys.iter().chain(values.iter()).any(|row| row.len() != len)
            {
                return Err(corrupt("dense recent window is ragged"));
            }
            dense.push((keys, values));
        }
        expect_exhausted(&s, "dense window")?;

        let mut s = Reader::new(r.get_section()?);
        let prompt_tokens = s.get_len()?;
        let generated = s.get_u32_slice()?;
        let pending = get_opt_u32(&mut s)?;
        let cur_logits = if s.get_u8()? == 1 {
            Some(s.get_f32_slice()?)
        } else {
            None
        };
        let prefix_reused = s.get_len()?;
        let unfed = s.get_u32_slice()?;
        expect_exhausted(&s, "decode front")?;
        if !r.is_exhausted() {
            return Err(corrupt("trailing bytes after snapshot"));
        }
        // Valid CRCs do not make values servable: the next step embeds the
        // pending token, samples the logits and extends the cache, whose
        // length must match the history (checked below) and fit the window;
        // the next chunk embeds the unfed tokens after it.
        let config = self.model().config();
        if pending.is_some_and(|t| t as usize >= config.vocab_size) {
            return Err(corrupt("pending token is outside the vocabulary"));
        }
        if cur_logits
            .as_ref()
            .is_some_and(|l| l.len() != config.vocab_size)
        {
            return Err(corrupt("decode-front logits do not span the vocabulary"));
        }
        if history.len() > config.max_seq_len {
            return Err(corrupt("cache exceeds the context window"));
        }
        if unfed.iter().any(|&t| t as usize >= config.vocab_size) {
            return Err(corrupt("an unfed prompt token is outside the vocabulary"));
        }
        if history.len() + unfed.len() > config.max_seq_len {
            return Err(corrupt("the unfed prompt runs past the context window"));
        }

        let mut session = InferenceSession::new(self, 0, false);
        // Re-attach the sealed chain through the store when granularities
        // agree — deduplicating against resident sessions — otherwise fold
        // the blocks back into private code tails. A resident block is
        // adopted only if its codes are bit-identical to the snapshot's
        // (token-chain identity alone is not sufficient: the same tokens
        // admitted through a different prefill/turn segmentation yield
        // different codes); on a content mismatch the snapshot's own codes
        // for that block and everything after it stay private — restore
        // never changes the session's arithmetic.
        let via_store = self
            .store()
            .is_some_and(|s| s.block_tokens() == snapshot_bt && snapshot_bt > 0)
            && blocks.iter().all(|b| b.len() == snapshot_bt);
        let mut folded_blocks: Vec<Block> = Vec::new();
        if via_store {
            let Some(chain) = session.chain.as_mut() else {
                return Err(corrupt("store-backed snapshot without a block chain"));
            };
            let store = chain.store().clone();
            let mut pos = 0usize;
            let mut iter = blocks.into_iter();
            for block in iter.by_ref() {
                let len = block.len();
                let tokens = history
                    .get(pos..pos + len)
                    .ok_or_else(|| corrupt("history shorter than sealed chain"))?;
                let (id, arc) = match store.lookup_child(chain.last_id(), tokens) {
                    Some((id, resident)) => {
                        if !blocks_equal(&resident, &block) {
                            store.release(id);
                            folded_blocks.push(block);
                            break;
                        }
                        (id, resident)
                    }
                    None => store.insert_child(chain.last_id(), tokens, block),
                };
                pos += len;
                for cache in &mut session.caches {
                    cache.attach_shared_block(arc.clone());
                }
                chain.push(id, arc);
            }
            folded_blocks.extend(iter);
        } else {
            folded_blocks = blocks;
        }
        for (layer, (cache, (mut keys, mut values))) in
            session.caches.iter_mut().zip(private).enumerate()
        {
            if !folded_blocks.is_empty() {
                for (h, merged) in keys.iter_mut().enumerate() {
                    let mut folded = PqCodes::new(key_config);
                    for block in &folded_blocks {
                        folded.append(block.key_codes(layer, h));
                    }
                    folded.append(merged);
                    *merged = folded;
                }
                for (h, merged) in values.iter_mut().enumerate() {
                    let mut folded = PqCodes::new(value_config);
                    for block in &folded_blocks {
                        folded.append(block.value_codes(layer, h));
                    }
                    folded.append(merged);
                    *merged = folded;
                }
            }
            let (dense_k, dense_v) = dense.remove(0);
            cache.restore_parts(keys, values, dense_k, dense_v);
        }
        if session.cached_tokens() != history.len() {
            return Err(corrupt("token history disagrees with cache length"));
        }
        session.history = history;
        session.prompt_tokens = prompt_tokens;
        session.generated = generated;
        session.pending = pending;
        session.cur_logits = cur_logits;
        session.prefix_reused = prefix_reused;
        // An admission snapshotted between chunks resumes open: its fed
        // tokens are still dense in the caches behind whatever is coded.
        session.unfed = unfed;
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use million_model::ModelConfig;

    use super::*;
    use crate::test_fixtures::{engine, engine_for, prompt};

    /// A hand-built snapshot whose header matches `engine` but whose
    /// private-tail codes use the wrong bit width must come back as a
    /// `MillionError::Persist`, never a panic (the restore error contract
    /// covers arbitrary on-disk corruption, not just truncation).
    #[test]
    fn misconfigured_code_sections_error_instead_of_panicking() {
        let engine = engine(false, 40);
        let layout = engine.model().cache_layout();
        let key_config = engine.codebooks().key[0].config();
        let value_config = engine.codebooks().value[0].config();
        let n_layers = engine.model().config().n_layers;

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let mut body = Vec::new();
        put_u32(&mut body, engine.config().block_tokens as u32);
        put_u32(&mut body, n_layers as u32);
        put_u32(&mut body, layout.n_kv_heads as u32);
        put_u32(&mut body, layout.head_dim as u32);
        put_u32(&mut body, key_config.m as u32);
        body.push(key_config.nbits);
        put_u32(&mut body, value_config.m as u32);
        body.push(value_config.nbits);
        put_section(&mut out, &body);
        body.clear();
        put_u32_slice(&mut body, &[1, 2]); // history: 2 tokens
        put_section(&mut out, &body);
        body.clear();
        put_u32(&mut body, 0); // no sealed blocks
        put_section(&mut out, &body);
        // Private tails carry a *different* geometry than the header claims.
        body.clear();
        let bad_config = PqConfig::new(key_config.m, key_config.nbits / 2).unwrap();
        let mut bad = PqCodes::new(bad_config);
        bad.push(&vec![0u16; bad_config.m]);
        bad.push(&vec![1u16; bad_config.m]);
        for _ in 0..n_layers {
            for _ in 0..2 * layout.n_kv_heads {
                put_codes(&mut body, &bad);
            }
        }
        put_section(&mut out, &body);
        body.clear();
        for _ in 0..n_layers {
            for _ in 0..2 * layout.n_kv_heads {
                put_f32_slice(&mut body, &[]);
            }
        }
        put_section(&mut out, &body);
        body.clear();
        put_u64(&mut body, 2);
        put_u32_slice(&mut body, &[]);
        body.push(0); // no pending
        body.push(0); // no logits
        put_u64(&mut body, 0);
        put_u32_slice(&mut body, &[]); // no open admission
        put_section(&mut out, &body);

        let err = engine
            .decode_session(&out)
            .expect_err("misconfigured codes must be rejected");
        assert!(err.to_string().contains("misconfigured"), "{err}");
    }

    /// A mid-generation session snapshot for the corruption sweeps below.
    fn snapshot(engine: &MillionEngine) -> Vec<u8> {
        let mut session = engine.session();
        session.prefill(&prompt());
        let _ = session.generate(&GenerationOptions::max_tokens(6));
        session.encode()
    }

    /// A snapshot taken between the chunks of an admission: 5 prompt tokens
    /// fed, the rest unfed.
    fn mid_admission_snapshot(engine: &MillionEngine) -> Vec<u8> {
        let mut session = engine.session();
        session.prefill_begin(prompt());
        session.prefill_chunk(5);
        session.snapshot_bytes()
    }

    /// Re-frames section `index` of a snapshot through `edit`, with a fresh
    /// CRC: the result passes every checksum but carries the edited values.
    fn patch_section(bytes: &[u8], index: usize, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let (magic, rest) = bytes.split_at(8);
        let (mut r, mut out) = (Reader::new(rest), magic.to_vec());
        let mut edit = Some(edit);
        let mut section = 0;
        while !r.is_exhausted() {
            let payload = r.get_section().expect("intact section");
            let body = match edit.take_if(|_| section == index) {
                Some(edit) => edit(payload),
                None => payload.to_vec(),
            };
            put_section(&mut out, &body);
            section += 1;
        }
        out
    }

    /// Rewrites the decode front's pending token, logits and unfed prompt.
    fn patch_front(
        bytes: &[u8],
        edit: impl FnOnce(&mut Option<u32>, &mut Option<Vec<f32>>, &mut Vec<u32>),
    ) -> Vec<u8> {
        patch_section(bytes, 5, |payload| {
            let mut s = Reader::new(payload);
            let prompt_tokens = s.get_len().expect("prompt tokens");
            let generated = s.get_u32_slice().expect("generated");
            let mut pending = get_opt_u32(&mut s).expect("pending");
            let mut logits = match s.get_u8().expect("flag") {
                1 => Some(s.get_f32_slice().expect("logits")),
                _ => None,
            };
            let prefix_reused = s.get_len().expect("prefix reused");
            let mut unfed = s.get_u32_slice().expect("unfed prompt");
            edit(&mut pending, &mut logits, &mut unfed);
            let mut body = Vec::new();
            put_u64(&mut body, prompt_tokens as u64);
            put_u32_slice(&mut body, &generated);
            put_opt_u32(&mut body, pending);
            match &logits {
                Some(logits) => {
                    body.push(1);
                    put_f32_slice(&mut body, logits);
                }
                None => body.push(0),
            }
            put_u64(&mut body, prefix_reused as u64);
            put_u32_slice(&mut body, &unfed);
            body
        })
    }

    /// Checksums prove the bytes are the ones written, not that the model
    /// can serve them: a pending token outside the vocabulary, logits of
    /// the wrong width, or a cache longer than the window would each
    /// restore and then panic at the first step. Each is a typed error.
    #[test]
    fn values_the_model_would_index_out_of_range_are_typed_errors() {
        let engine = engine(false, 44);
        let vocab = engine.model().config().vocab_size;
        let bytes = snapshot(&engine);
        assert_eq!(
            patch_front(&bytes, |_, _, _| {}),
            bytes,
            "faithful re-framing"
        );

        let bad = patch_front(&bytes, |pending, _, _| *pending = Some(vocab as u32));
        let err = engine
            .restore_session_bytes(&bad)
            .expect_err("pending token outside the vocabulary");
        assert!(matches!(err, MillionError::Persist(_)));
        assert!(err.to_string().contains("pending token"), "{err}");

        let bad = patch_front(&bytes, |_, logits, _| {
            logits.as_mut().expect("logits").pop();
        });
        let err = engine
            .restore_session_bytes(&bad)
            .expect_err("logits narrower than the vocabulary");
        assert!(err.to_string().contains("logits"), "{err}");

        // Same geometry, shorter window: the 17-token cache cannot fit 16.
        let mut config = ModelConfig::tiny_for_tests();
        config.max_seq_len = 16;
        let short = engine_for(config, false, 44);
        let err = short
            .restore_session_bytes(&bytes)
            .expect_err("cache beyond the window");
        assert!(err.to_string().contains("context window"), "{err}");
    }

    /// A snapshot's unfed prompt is held to the vocabulary and the window
    /// on every restore path, standalone included: the next chunk would
    /// embed its tokens at positions after the cache.
    #[test]
    fn unfed_prompts_the_model_cannot_feed_are_typed_errors() {
        let engine = engine(false, 45);
        let config = engine.model().config();
        let bytes = mid_admission_snapshot(&engine);
        let restored = engine
            .restore_session_bytes(&bytes)
            .unwrap_or_else(|e| panic!("mid-admission snapshot: {e}"));
        assert_eq!(restored.cached_tokens(), 5);
        assert_eq!(restored.unfed_prompt_tokens(), prompt().len() - 5);
        assert_eq!(
            patch_front(&bytes, |_, _, _| {}),
            bytes,
            "faithful re-framing"
        );

        let bad = patch_front(&bytes, |_, _, unfed| unfed[2] = config.vocab_size as u32);
        let err = engine
            .restore_session_bytes(&bad)
            .expect_err("unfed token outside the vocabulary");
        assert!(matches!(err, MillionError::Persist(_)));
        assert!(err.to_string().contains("vocabulary"), "{err}");

        // 5 fed tokens and a window's worth unfed: the last runs past it.
        let bad = patch_front(&bytes, |_, _, unfed| {
            *unfed = vec![7; config.max_seq_len - 4];
        });
        let err = engine
            .restore_session_bytes(&bad)
            .expect_err("unfed prompt past the window");
        assert!(err.to_string().contains("context window"), "{err}");
        // Exactly to the end of the window is a prompt a session can hold.
        let full = patch_front(&bytes, |_, _, unfed| {
            *unfed = vec![7; config.max_seq_len - 5];
        });
        assert!(engine.restore_session_bytes(&full).is_ok());
    }

    /// A checkpoint's request needs a position left to generate into, and a
    /// decoding one must have logits to sample; its session's unfed prompt
    /// gets the snapshot's own vocabulary and window checks.
    #[test]
    fn checkpoints_the_engine_cannot_serve_are_typed_errors() {
        let engine = engine(false, 46);
        let config = engine.model().config();
        let id = RequestId::from_u64(3);
        let checkpoint = |fed: &[u32], unfed: &[u32]| {
            let mut session = engine.session();
            if !fed.is_empty() {
                session.prefill_begin([fed, unfed].concat());
                session.prefill_chunk(fed.len());
            }
            let request = Request::new(Vec::new(), GenerationOptions::max_tokens(4));
            session.checkpoint_bytes(id, &request, &[])
        };
        let decoded = engine
            .decode_checkpoint(&checkpoint(&prompt(), &[5, 6]))
            .unwrap_or_else(|e| panic!("servable checkpoint: {e}"));
        assert_eq!(decoded.id, id);
        assert!(decoded.request.prompt.is_empty());
        assert_eq!(decoded.session.unfed_prompt_tokens(), 2);
        assert_eq!(decoded.session.id(), 3);

        let fills_the_window = vec![5; config.max_seq_len - prompt().len()];
        let cases = [
            (
                checkpoint(&prompt(), &[5, config.vocab_size as u32]),
                "vocabulary",
            ),
            (
                checkpoint(&prompt(), &vec![5; config.max_seq_len]),
                "context window",
            ),
            (
                checkpoint(&prompt(), &fills_the_window),
                "no position is left",
            ),
            (checkpoint(&[], &[]), "logits"),
        ];
        for (bytes, reason) in cases {
            let err = engine
                .decode_checkpoint(&bytes)
                .err()
                .unwrap_or_else(|| panic!("{reason} checkpoint decodes"));
            assert!(err.to_string().contains(reason), "{reason}: {err}");
        }
    }

    /// Kill-point sweep: a snapshot truncated at *any* byte — every section
    /// boundary plus a stride through each section's interior — must restore
    /// as a typed error, never a panic or a silent partial read. Swept over
    /// a mid-generation and a mid-admission snapshot.
    #[test]
    fn truncation_at_any_point_is_a_typed_error() {
        let engine = engine(false, 41);
        for bytes in [snapshot(&engine), mid_admission_snapshot(&engine)] {
            truncation_sweep(&engine, &bytes);
        }
    }

    fn truncation_sweep(engine: &MillionEngine, bytes: &[u8]) {
        assert!(
            engine.restore_session_bytes(bytes).is_ok(),
            "uncut snapshot restores"
        );

        // Walk the section frames to collect every boundary offset.
        let mut boundaries = vec![0usize, MAGIC.len()];
        let mut pos = MAGIC.len();
        while pos < bytes.len() {
            let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("frame")) as usize;
            // After the length, after the CRC, and after the payload.
            boundaries.extend([pos + 8, pos + 12, pos + 12 + len]);
            pos += 12 + len;
        }
        assert_eq!(pos, bytes.len(), "frame walk covers the snapshot");
        let cuts: Vec<usize> = boundaries
            .iter()
            .copied()
            .chain((0..bytes.len()).step_by(97))
            .filter(|&c| c < bytes.len())
            .collect();
        for cut in cuts {
            let err = engine
                .restore_session_bytes(&bytes[..cut])
                .expect_err(&format!("cut at byte {cut}/{} restores", bytes.len()));
            assert!(matches!(err, MillionError::Persist(_)));
        }
    }

    /// Any flipped byte inside a CRC-covered section payload is detected by
    /// the section checksum, in a mid-generation and a mid-admission
    /// snapshot.
    #[test]
    fn flipped_bytes_in_every_section_are_detected() {
        let engine = engine(false, 42);
        for bytes in [snapshot(&engine), mid_admission_snapshot(&engine)] {
            flip_sweep(&engine, &bytes);
        }
    }

    fn flip_sweep(engine: &MillionEngine, bytes: &[u8]) {
        let mut pos = MAGIC.len();
        let mut section = 0;
        while pos < bytes.len() {
            let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("frame")) as usize;
            let payload = pos + 12..pos + 12 + len;
            // First, last, and a stride of interior payload bytes.
            let targets: Vec<usize> = [payload.start, payload.end.saturating_sub(1)]
                .into_iter()
                .chain(payload.clone().step_by(61))
                .filter(|i| payload.contains(i))
                .collect();
            for i in targets {
                let mut bad = bytes.to_vec();
                bad[i] ^= 0x10;
                let err = engine.restore_session_bytes(&bad).expect_err(&format!(
                    "flip at byte {i} in section {section} went undetected"
                ));
                assert!(
                    err.to_string().contains("checksum mismatch"),
                    "section {section} flip at {i}: {err}"
                );
            }
            pos += 12 + len;
            section += 1;
        }
        assert_eq!(section, 6, "snapshot carries six sections");
    }

    /// The malformed-input audit: zero-length files, a bare magic, the
    /// retired v1 and v2 magics (a v2 snapshot records no unfed prompt),
    /// a checkpoint magic, and trailing garbage each get a distinct typed
    /// error.
    #[test]
    fn malformed_snapshots_error_cleanly() {
        let engine = engine(false, 43);
        let err = engine.restore_session_bytes(&[]).expect_err("zero-length");
        assert!(err.to_string().contains("truncated"), "{err}");
        let err = engine
            .restore_session_bytes(&MAGIC[..4])
            .expect_err("truncated magic");
        assert!(err.to_string().contains("truncated"), "{err}");
        let err = engine
            .restore_session_bytes(MAGIC)
            .expect_err("magic with no sections");
        assert!(err.to_string().contains("truncated"), "{err}");
        let err = engine
            .restore_session_bytes(b"MLNSES01rest-of-an-old-snapshot")
            .expect_err("v1 snapshot");
        assert!(err.to_string().contains("MLNSES01"), "{err}");
        let mut v2 = snapshot(&engine);
        v2[..8].copy_from_slice(b"MLNSES02");
        let err = engine.restore_session_bytes(&v2).expect_err("v2 snapshot");
        assert!(err.to_string().contains("MLNSES02"), "{err}");
        let err = engine
            .restore_session_bytes(b"MLNCKPT3")
            .expect_err("a checkpoint is not a snapshot");
        assert!(err.to_string().contains("bad magic"), "{err}");
        let err = engine
            .restore_session_bytes(b"NOTMAGIC")
            .expect_err("foreign bytes");
        assert!(err.to_string().contains("bad magic"), "{err}");
        let mut trailing = snapshot(&engine);
        trailing.extend_from_slice(b"garbage");
        let err = engine
            .restore_session_bytes(&trailing)
            .expect_err("trailing garbage");
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        // A non-persist path never existed for directories: reading one
        // surfaces the I/O error as MillionError::Persist too.
        let err = engine
            .restore_session(std::env::temp_dir())
            .expect_err("directory is not a snapshot");
        assert!(matches!(err, MillionError::Persist(_)));
    }
}
