//! The backend-agnostic KV-cache interface used by the transformer layers.

use million_tensor::{Matrix, StridedRows};

/// Static geometry of one layer's KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLayout {
    /// Number of key/value heads (equal to query heads for MHA, fewer for GQA).
    pub n_kv_heads: usize,
    /// Channels per head.
    pub head_dim: usize,
}

impl CacheLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if either field is zero.
    pub fn new(n_kv_heads: usize, head_dim: usize) -> Self {
        assert!(n_kv_heads > 0, "n_kv_heads must be > 0");
        assert!(head_dim > 0, "head_dim must be > 0");
        Self {
            n_kv_heads,
            head_dim,
        }
    }

    /// Width of the flattened `[tokens, n_kv_heads * head_dim]` KV matrices.
    pub fn width(&self) -> usize {
        self.n_kv_heads * self.head_dim
    }

    /// Byte size of one token's K + V in fp16, the unit the paper's memory
    /// arithmetic is based on.
    pub fn fp16_bytes_per_token(&self) -> usize {
        2 * self.width() * 2
    }
}

/// Per-query parameters for decode-time attention over the cache.
#[derive(Debug, Clone, Copy)]
pub struct AttendParams<'a> {
    /// Which KV head to attend with.
    pub head: usize,
    /// The query vector for this head (positional embedding already applied).
    pub query: &'a [f32],
    /// Score scale, normally `1/sqrt(head_dim)`.
    pub scale: f32,
    /// Absolute position of the querying token (used for ALiBi distances).
    pub query_pos: usize,
    /// ALiBi slope for this head, or `None` when the model does not use ALiBi.
    pub alibi_slope: Option<f32>,
    /// The current token's `(key, value)` pair, attended at full precision and
    /// merged with the cached history through the online softmax — the second
    /// term of Eq. (7) in the paper. `None` when the query should only see
    /// already-cached tokens.
    pub current: Option<(&'a [f32], &'a [f32])>,
}

impl<'a> AttendParams<'a> {
    /// Creates parameters with no ALiBi bias and no current-token pair.
    pub fn new(head: usize, query: &'a [f32], scale: f32, query_pos: usize) -> Self {
        Self {
            head,
            query,
            scale,
            query_pos,
            alibi_slope: None,
            current: None,
        }
    }

    /// Sets the ALiBi slope for this head.
    pub fn with_alibi(mut self, slope: f32) -> Self {
        self.alibi_slope = Some(slope);
        self
    }

    /// Attaches the current token's full-precision key/value pair.
    pub fn with_current(mut self, key: &'a [f32], value: &'a [f32]) -> Self {
        self.current = Some((key, value));
        self
    }
}

/// A growable per-layer key/value store that can answer decode-time
/// attention queries against everything it has cached.
///
/// Implementations differ in how (and how much) they compress; they all obey
/// the same contract:
///
/// * [`append`](KvCache::append) adds the keys/values of one or more new
///   tokens (rows of a `[tokens, n_kv_heads * head_dim]` matrix, with the
///   positional embedding already applied to keys where relevant);
/// * [`attend`](KvCache::attend) computes `softmax(q·K^T * scale + bias) · V`
///   for a single query over **all** cached tokens of one head and writes the
///   result into `out`, borrowing all working memory from a caller-owned
///   [`crate::AttendScratch`] so the steady-state decode loop allocates
///   nothing.
///
/// `attend` takes `&self`: reading a cache never changes it, so the heads of
/// a token attend in any order over one scratch.
pub trait KvCache: Send + Sync {
    /// Geometry of this cache.
    fn layout(&self) -> CacheLayout;

    /// Number of tokens currently cached.
    fn len(&self) -> usize;

    /// Returns `true` when no tokens are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the keys/values of `keys.rows()` new tokens.
    ///
    /// # Panics
    ///
    /// Implementations panic if the matrices do not both have
    /// `layout().width()` columns and the same number of rows.
    fn append(&mut self, keys: &Matrix, values: &Matrix);

    /// Attention of one query over every cached token of one head.
    ///
    /// All temporary buffers come from `scratch`, which may be shared across
    /// heads, layers, backends, and calls (but not across concurrent calls);
    /// results never depend on what a previous call left in it.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.query.len() != head_dim`,
    /// `out.len() != head_dim`, or `params.head >= n_kv_heads`.
    fn attend(
        &self,
        params: &AttendParams<'_>,
        scratch: &mut crate::AttendScratch,
        out: &mut [f32],
    );

    /// The keys and values of every cached token of one KV head, `[len,
    /// head_dim]` each, in position order — what a prompt chunk behind a
    /// history attends over with the tiled kernel. A cache that holds its
    /// whole history dense lends its own rows and leaves `buf` alone; one
    /// that can reconstruct coded tokens writes the history into `buf`
    /// (resized in place, so a reused buffer stops allocating). `None` (the
    /// default) when the cache cannot give its history back.
    ///
    /// # Panics
    ///
    /// Implementations panic if `head >= n_kv_heads`.
    fn dense_history<'a>(
        &'a self,
        head: usize,
        buf: &'a mut Vec<f32>,
    ) -> Option<[StridedRows<'a>; 2]> {
        let _ = (head, buf);
        None
    }

    /// Bytes of storage attributable to the cached tokens (excluding any
    /// shared, token-count-independent state such as codebooks).
    fn memory_bytes(&self) -> usize;

    /// Drops every cached token, returning the cache to its freshly
    /// constructed state while keeping configuration and any shared state
    /// (codebooks). Lets a serving session be reused for a new conversation
    /// without re-allocating backends.
    fn reset(&mut self);

    /// Short human-readable backend name (e.g. `"fp16"`, `"million-pq"`).
    fn kind(&self) -> &'static str;
}

impl<T: KvCache + ?Sized> KvCache for Box<T> {
    fn layout(&self) -> CacheLayout {
        (**self).layout()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn append(&mut self, keys: &Matrix, values: &Matrix) {
        (**self).append(keys, values)
    }

    fn attend(
        &self,
        params: &AttendParams<'_>,
        scratch: &mut crate::AttendScratch,
        out: &mut [f32],
    ) {
        (**self).attend(params, scratch, out)
    }

    fn dense_history<'a>(
        &'a self,
        head: usize,
        buf: &'a mut Vec<f32>,
    ) -> Option<[StridedRows<'a>; 2]> {
        (**self).dense_history(head, buf)
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn kind(&self) -> &'static str {
        (**self).kind()
    }
}

/// One head's contiguous `[tokens, head_dim]` key and value rows as views.
pub(crate) fn head_rows<'a>(
    keys: &'a [f32],
    values: &'a [f32],
    head_dim: usize,
) -> [StridedRows<'a>; 2] {
    [
        StridedRows::new(keys, head_dim, 0, head_dim),
        StridedRows::new(values, head_dim, 0, head_dim),
    ]
}

/// Splits one row of a flattened `[tokens, n_kv_heads * head_dim]` matrix
/// into the slice belonging to `head`.
#[inline]
pub fn head_slice<'a>(row: &'a [f32], layout: &CacheLayout, head: usize) -> &'a [f32] {
    let d = layout.head_dim;
    &row[head * d..(head + 1) * d]
}

/// Appends the per-head slices of `[tokens, n_kv_heads * head_dim]` key and
/// value matrices to per-head contiguous stores, one strided pass per head
/// (a single `reserve` then `rows` slice copies) instead of a per-token ×
/// per-head extend dance. `heads` yields each head's `(keys, values)`
/// destination in head order; this is the shared append path of every cache
/// backend.
///
/// # Panics
///
/// Panics if the matrices differ in shape or are not `layout.width()` wide.
pub fn append_head_strided<'a>(
    layout: &CacheLayout,
    keys: &Matrix,
    values: &Matrix,
    heads: impl Iterator<Item = (&'a mut Vec<f32>, &'a mut Vec<f32>)>,
) {
    assert_eq!(keys.shape(), values.shape(), "keys/values shape mismatch");
    assert_eq!(keys.cols(), layout.width(), "KV width mismatch");
    let rows = keys.rows();
    let d = layout.head_dim;
    let width = layout.width();
    let k_src = keys.as_slice();
    let v_src = values.as_slice();
    for (h, (dst_keys, dst_values)) in heads.enumerate() {
        let offset = h * d;
        dst_keys.reserve(rows * d);
        for t in 0..rows {
            let base = t * width + offset;
            dst_keys.extend_from_slice(&k_src[base..base + d]);
        }
        dst_values.reserve(rows * d);
        for t in 0..rows {
            let base = t * width + offset;
            dst_values.extend_from_slice(&v_src[base..base + d]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_width_and_bytes() {
        let layout = CacheLayout::new(4, 64);
        assert_eq!(layout.width(), 256);
        assert_eq!(layout.fp16_bytes_per_token(), 1024);
    }

    #[test]
    #[should_panic(expected = "head_dim must be > 0")]
    fn zero_head_dim_panics() {
        let _ = CacheLayout::new(2, 0);
    }

    #[test]
    fn head_slice_selects_correct_chunk() {
        let layout = CacheLayout::new(2, 3);
        let row: Vec<f32> = (0..6).map(|v| v as f32).collect();
        assert_eq!(head_slice(&row, &layout, 0), &[0.0, 1.0, 2.0]);
        assert_eq!(head_slice(&row, &layout, 1), &[3.0, 4.0, 5.0]);
    }
}
