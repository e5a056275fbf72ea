//! Evaluation harnesses for the MILLION reproduction.
//!
//! Three pieces, one per accuracy-side experiment family of the paper:
//!
//! * [`corpus`] — seeded synthetic token streams standing in for Wikitext-2
//!   and PTB (Table II uses perplexity *relative to the fp16 baseline of the
//!   same model on the same stream*, so only the degradation matters).
//! * [`perplexity`] — teacher-forced perplexity where every next-token
//!   prediction attends through the (possibly quantized) KV cache.
//! * [`analysis`] — KV distribution statistics (per-channel magnitude and
//!   standard deviation) behind Fig. 2 and Fig. 3.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod corpus;
pub mod perplexity;

pub use analysis::{ChannelStats, KvDistributionReport};
pub use corpus::{CorpusConfig, SyntheticCorpus};
pub use perplexity::{evaluate_perplexity, PerplexityReport};
