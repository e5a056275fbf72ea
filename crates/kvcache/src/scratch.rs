//! Reusable decode-attention scratch buffers.
//!
//! Every [`crate::KvCache::attend`] call needs working memory: the PQ
//! backend a score lookup table, a centroid-mass accumulator and a mixed
//! segment; the integer/NUQ baselines per-token de-quantization buffers; all
//! of them an online-softmax merger. Allocating those per (layer × head ×
//! token) call dominated the decode hot path, so they live in an
//! [`AttendScratch`] the caller owns — one per forward, shared by its heads
//! and layers — and every buffer is reused across calls. Once warmed to the largest shapes in
//! flight, steady-state attention performs zero heap allocations.

use million_quant::pq::{ScoreLut, ValueAccumulator};
use million_tensor::OnlineSoftmax;

/// Caller-owned working memory for [`crate::KvCache::attend`].
///
/// A scratch carries no results between calls — any backend may use any
/// scratch at any time (buffers are reset or fully overwritten before use),
/// so interleaving heads, layers, backends, and sessions over one scratch is
/// token-for-token identical to using a fresh scratch per call. The only
/// contract is exclusivity: one scratch serves one attend call at a time.
#[derive(Debug, Clone)]
pub struct AttendScratch {
    /// Per-query score lookup table (PQ backend).
    pub(crate) lut: ScoreLut,
    /// Per-centroid softmax mass (PQ backend).
    pub(crate) acc: ValueAccumulator,
    /// Mixed-centroid segment of `head_dim` floats (PQ backend).
    pub(crate) segment: Vec<f32>,
    /// Online-softmax merger combining quantized and dense segments.
    pub(crate) softmax: OnlineSoftmax,
    /// De-quantized key row (integer/NUQ baselines).
    pub(crate) key_buf: Vec<f32>,
    /// De-quantized value row (integer/NUQ baselines).
    pub(crate) value_buf: Vec<f32>,
}

impl AttendScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self {
            lut: ScoreLut::empty(),
            acc: ValueAccumulator::new(1, 1),
            segment: Vec::new(),
            softmax: OnlineSoftmax::new(0),
            key_buf: Vec::new(),
            value_buf: Vec::new(),
        }
    }
}

impl Default for AttendScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Grows `buf` to at least `len` entries (never shrinking, so the
/// allocation is reused across calls) and returns the `len`-prefix — the
/// standard (re)sizing step for every scratch buffer. A free function
/// rather than a method so callers can borrow several scratch fields
/// disjointly at once.
#[inline]
pub fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}
