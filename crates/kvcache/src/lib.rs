//! KV-cache backends for long-context decoding.
//!
//! A transformer layer owns one [`KvCache`] trait object per layer; the
//! backend decides how keys and values are stored between decode steps:
//!
//! * [`full::FullPrecisionCache`] — the fp16 baseline of the paper (values
//!   are held as `f32` on the CPU but accounted as 2 bytes/element).
//! * [`pq_cache::PqKvCache`] — MILLION: keys/values stored as bit-packed PQ
//!   codes, attention computed directly over codes with per-query lookup
//!   tables and an online-softmax merge with the dense recent window.
//! * [`kivi::KiviCache`] — KIVI baseline: group-wise asymmetric integer
//!   quantization, per-channel keys / per-token values, with a full-precision
//!   residual for the not-yet-full trailing group.
//! * [`kvquant::KvQuantCache`] — KVQuant baseline: per-channel non-uniform
//!   key quantization, per-token non-uniform values, optional sparse
//!   full-precision outlier isolation.
//!
//! All backends expose the same decode-time interface ([`KvCache::attend`])
//! so the transformer substrate can swap them freely, and report their
//! memory footprint so compression ratios can be measured exactly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod full;
pub mod kivi;
pub mod kvquant;
pub mod pq_cache;
pub mod scratch;
pub mod traits;

pub use full::FullPrecisionCache;
pub use kivi::{KiviCache, KiviConfig};
pub use kvquant::{KvQuantCache, KvQuantConfig};
pub use pq_cache::{PqCacheConfig, PqKvCache};
pub use scratch::{grown, AttendScratch};
pub use traits::{AttendParams, CacheLayout, KvCache};
