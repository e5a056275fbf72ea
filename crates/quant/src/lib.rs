//! Quantization algorithms for transformer KV caches.
//!
//! This crate implements every quantizer evaluated in the MILLION paper:
//!
//! * [`uniform`] — classic integer quantization (Eq. 2/3 of the paper) at
//!   per-tensor, per-channel, per-token and group-wise granularity. This is
//!   the building block of the KIVI baseline.
//! * [`nuq`] — non-uniform scalar quantization via 1-D k-means, the building
//!   block of the KVQuant baseline.
//! * [`outlier`] — sparse full-precision isolation of the top-p% magnitude
//!   entries (KVQuant's "1% outlier" variant, and the sensitivity study of
//!   Table III).
//! * [`pq`] — product quantization: subspace codebook training, encoding,
//!   decoding and the asymmetric-distance lookup tables that let MILLION
//!   compute attention scores directly over codes (Eq. 4–7).
//! * [`kmeans`] / [`bitpack`] — the shared machinery (Lloyd's algorithm with
//!   k-means++ seeding, and arbitrary-width bit packing for code storage).
//!
//! # Quick example: product-quantizing a batch of key vectors
//!
//! ```
//! use million_quant::pq::{PqCodebook, PqConfig, PqTrainOptions};
//! use million_tensor::{init, Matrix};
//!
//! # fn main() -> Result<(), million_quant::QuantError> {
//! let mut rng = init::seeded_rng(0);
//! let keys = init::normal_matrix(&mut rng, 512, 64, 0.0, 1.0);
//! let config = PqConfig::new(16, 8)?; // 16 subspaces, 8-bit codes
//! let codebook = PqCodebook::train(&config, &keys, &PqTrainOptions::default(), 0)?;
//! let codes = codebook.encode_matrix(&keys);
//! let restored = codebook.decode_matrix(&codes);
//! assert_eq!(restored.shape(), keys.shape());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod bitpack;
pub mod kmeans;
pub mod nuq;
pub mod outlier;
pub mod pq;
pub mod uniform;

/// Error type shared by all quantizers in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// A configuration parameter was outside its supported range.
    InvalidConfig(String),
    /// The data passed to a quantizer had an unexpected shape.
    ShapeMismatch(String),
    /// Training data was insufficient (e.g. fewer samples than clusters).
    InsufficientData(String),
    /// Training data held a NaN or an infinity.
    NonFinite(String),
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::InvalidConfig(msg) => write!(f, "invalid quantizer configuration: {msg}"),
            QuantError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            QuantError::InsufficientData(msg) => write!(f, "insufficient training data: {msg}"),
            QuantError::NonFinite(msg) => write!(f, "non-finite training data: {msg}"),
        }
    }
}

impl std::error::Error for QuantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_meaningfully() {
        assert!(QuantError::InvalidConfig("nbits".into())
            .to_string()
            .contains("nbits"));
        assert!(QuantError::ShapeMismatch("cols".into())
            .to_string()
            .contains("cols"));
        assert!(QuantError::InsufficientData("samples".into())
            .to_string()
            .contains("samples"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantError>();
    }
}
