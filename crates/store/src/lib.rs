//! Paged copy-on-write storage for PQ code blocks.
//!
//! The paper's central economy is that PQ codes *are* the KV cache: an
//! immutable, compressed representation cheap enough to keep resident for
//! very large user populations. Immutability makes a vLLM-style paged block
//! store the natural owner of that representation:
//!
//! * a [`Block`] is a fixed-size, sealed, immutable span of packed PQ codes
//!   covering every `(layer, head)` of a model for `block_tokens`
//!   consecutive tokens;
//! * a [`BlockStore`] owns blocks behind reference counts and a
//!   **content-addressed prefix index**: a block's identity is the hash
//!   chain of the *token ids* it (and its ancestors) encode, so two sessions
//!   that quantized the same prompt prefix converge on the same physical
//!   block — publish-time deduplication — and a newly admitted session can
//!   [`BlockStore::attach_prefix`] an already-resident prefix instead of
//!   re-encoding it (copy-on-write: only each session's open tail is
//!   private and mutable, and it diverges at the first non-shared token);
//! * a [`ChainHandle`] is one session's retained view of its sealed chain;
//!   dropping it releases the references, and blocks are evicted the moment
//!   their last reference disappears;
//! * [`persist`] is the little-endian binary codec used to write chains and
//!   private code tails to disk — blocks are already the compressed wire
//!   format, so persistence is a framing exercise, not a transcoding one.
//!
//! Token-id hashing is sound because encoding is deterministic: for a fixed
//! engine (weights + codebooks), the KV of token `t` depends only on tokens
//! `0..=t`, so an identical token prefix yields bit-identical codes. A store
//! therefore belongs to exactly one engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod chain;
pub mod persist;
mod store;

pub use block::Block;
pub use chain::ChainHandle;
pub use store::{token_chain_hash, BlockId, BlockStore, StoreStats, TokenChainHash};
