//! Product quantization (PQ) — the core of MILLION.
//!
//! A `d`-dimensional vector is split into `M` subvectors of `d/M` channels;
//! each subspace has its own codebook of `2^nbits` centroids trained with
//! k-means (Section III-A of the paper). A vector is stored as `M` centroid
//! indices, bit-packed to `M * nbits` bits.
//!
//! Two decode-free primitives make MILLION fast at decode time:
//!
//! * [`PqCodebook::score_lut`] turns the current query into a per-subspace
//!   lookup table `q_i · C_iᵀ`; the attention score of a cached token is the
//!   sum of `M` table entries selected by its codes (asymmetric distance
//!   computation, Eq. 7 first term). No key is ever de-quantized.
//! * [`ValueAccumulator`] computes `softmax(p) · V̂` by accumulating softmax
//!   mass per centroid and mixing the centroids once, instead of
//!   reconstructing each cached value vector.

use std::ops::Range;

use million_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::bitpack::PackedCodes;
use crate::kmeans::{kmeans, nearest, KMeansOptions};
use crate::QuantError;

/// Static configuration of a product quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PqConfig {
    /// Number of subspaces (`M` in the paper).
    pub m: usize,
    /// Bits per subspace code (`nbits` in the paper); codebook size is `2^nbits`.
    pub nbits: u8,
}

impl PqConfig {
    /// Creates a configuration, validating the field ranges.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] if `m == 0` or `nbits` is outside
    /// `1..=16`.
    pub fn new(m: usize, nbits: u8) -> Result<Self, QuantError> {
        if m == 0 {
            return Err(QuantError::InvalidConfig("m must be > 0".into()));
        }
        if nbits == 0 || nbits > 16 {
            return Err(QuantError::InvalidConfig(format!(
                "nbits {nbits} not in 1..=16"
            )));
        }
        Ok(Self { m, nbits })
    }

    /// Codebook size per subspace (`2^nbits`).
    pub fn codebook_size(&self) -> usize {
        1usize << self.nbits
    }

    /// Bits used to store one `dim`-dimensional vector.
    pub fn bits_per_vector(&self) -> usize {
        self.m * self.nbits as usize
    }

    /// Effective bits per original channel for a vector of dimension `dim`,
    /// the "N-bit quantization" figure the paper quotes (e.g. `(M=32,
    /// nbits=12)` over a 128-channel head is 3 bits/channel... for the models
    /// in the paper `d = 128 * heads`; see `million-model` presets).
    pub fn bits_per_channel(&self, dim: usize) -> f64 {
        if dim == 0 {
            return 0.0;
        }
        self.bits_per_vector() as f64 / dim as f64
    }
}

/// Options controlling PQ codebook training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PqTrainOptions {
    /// k-means options used per subspace.
    pub kmeans: KMeansOptions,
    /// Maximum number of training vectors; more are subsampled evenly.
    pub max_samples: usize,
}

impl Default for PqTrainOptions {
    fn default() -> Self {
        Self {
            kmeans: KMeansOptions::default(),
            max_samples: 8192,
        }
    }
}

/// Trained product-quantization codebook for vectors of one fixed dimension.
///
/// The centroids are held twice, each layout built once at construction for
/// the kernels that read it (`k = 2^nbits`):
///
/// * **planes**, subspace- then channel-major: channel `j` of centroid `c` of
///   subspace `sub` is `planes[(sub * dsub + j) * k + c]`. The `k` values a
///   kernel needs per channel are contiguous, so [`ScoreLut::fill_from`] and
///   the nearest-centroid scan of [`PqCodebook::encode_into`] run over whole
///   lanes of centroids.
/// * **rows**, code-major: the same value is `rows[c * dim + sub * dsub + j]`.
///   Row `c` is the full-width vector made of every subspace's centroid `c`,
///   which is what [`ValueAccumulator::finish_into`] mixes and decoding
///   copies from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PqCodebook {
    config: PqConfig,
    dim: usize,
    dsub: usize,
    rows: Vec<f32>,
    /// Derived from `rows`.
    #[serde(skip)]
    planes: Vec<f32>,
}

impl PqCodebook {
    /// Trains codebooks on the rows of `samples` (`[n, dim]`).
    ///
    /// The vector dimension must be divisible by `config.m`. The `seed`
    /// parameter makes training deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] if `dim % m != 0`,
    /// [`QuantError::InsufficientData`] if `samples` is empty, and
    /// [`QuantError::NonFinite`], naming the first such row, if a row
    /// training would read holds a NaN or an infinity (k-means cannot seed
    /// from one: a NaN distance poisons every draw, an infinite one takes
    /// every draw after it).
    pub fn train(
        config: &PqConfig,
        samples: &Matrix,
        options: &PqTrainOptions,
        seed: u64,
    ) -> Result<Self, QuantError> {
        let (n, dim) = samples.shape();
        if n == 0 || dim == 0 {
            return Err(QuantError::InsufficientData(
                "PQ training requires at least one sample".into(),
            ));
        }
        if config.m == 0 || dim % config.m != 0 {
            return Err(QuantError::ShapeMismatch(format!(
                "vector dimension {dim} is not divisible by m = {}",
                config.m
            )));
        }
        let dsub = dim / config.m;
        let k = config.codebook_size();

        // Evenly subsample the training set if it is larger than max_samples.
        let stride = n.div_ceil(options.max_samples.max(1));
        let selected: Vec<usize> = (0..n).step_by(stride).collect();
        if let Some(&row) = selected
            .iter()
            .find(|&&row| samples.row(row).iter().any(|x| !x.is_finite()))
        {
            return Err(QuantError::NonFinite(format!(
                "sample row {row} holds a NaN or an infinity"
            )));
        }

        let centroids = (0..config.m)
            .into_par_iter()
            .map(|sub| {
                let mut sub_samples = Matrix::zeros(selected.len(), dsub);
                for (out_row, &src_row) in selected.iter().enumerate() {
                    let row = samples.row(src_row);
                    sub_samples
                        .row_mut(out_row)
                        .copy_from_slice(&row[sub * dsub..(sub + 1) * dsub]);
                }
                let mut rng = StdRng::seed_from_u64(seed ^ (sub as u64).wrapping_mul(0x9E37_79B9));
                let result = kmeans(&sub_samples, k, &options.kmeans, &mut rng)
                    .expect("subspace k-means cannot fail after outer validation");
                result.centroids
            })
            .collect();

        Self::from_centroids(*config, centroids)
    }

    /// Builds a codebook from `m` centroid matrices, each `[2^nbits, dsub]`
    /// (useful in tests and for deserialised codebooks).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] if the centroid matrices do not
    /// agree with the configuration, or there are none, or they have no
    /// columns.
    pub fn from_centroids(config: PqConfig, centroids: Vec<Matrix>) -> Result<Self, QuantError> {
        if centroids.len() != config.m {
            return Err(QuantError::ShapeMismatch(format!(
                "expected {} centroid matrices, got {}",
                config.m,
                centroids.len()
            )));
        }
        let dsub = centroids.first().map_or(0, Matrix::cols);
        if dsub == 0 {
            return Err(QuantError::ShapeMismatch(
                "a codebook needs at least one subspace of at least one channel".into(),
            ));
        }
        let k = config.codebook_size();
        let dim = dsub * config.m;
        let mut rows = vec![0.0f32; k * dim];
        let mut planes = Vec::with_capacity(k * dim);
        for (sub, matrix) in centroids.iter().enumerate() {
            if matrix.rows() != k || matrix.cols() != dsub {
                return Err(QuantError::ShapeMismatch(
                    "centroid matrices must all be [2^nbits, dsub]".into(),
                ));
            }
            for c in 0..k {
                rows[c * dim + sub * dsub..][..dsub].copy_from_slice(matrix.row(c));
            }
            planes.extend_from_slice(matrix.transpose().as_slice());
        }
        Ok(Self {
            config,
            dim,
            dsub,
            rows,
            planes,
        })
    }

    /// The configuration this codebook was trained with.
    pub fn config(&self) -> PqConfig {
        self.config
    }

    /// Dimensionality of the vectors this codebook encodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Channels per subspace.
    pub fn dsub(&self) -> usize {
        self.dsub
    }

    /// Centroid `code` of one subspace (`dsub` channels).
    ///
    /// # Panics
    ///
    /// Panics if `subspace >= m` or `code >= 2^nbits`.
    pub fn centroid(&self, subspace: usize, code: usize) -> &[f32] {
        assert!(subspace < self.config.m, "subspace out of range");
        &self.rows[code * self.dim + subspace * self.dsub..][..self.dsub]
    }

    /// The `[dsub][2^nbits]` channel-major centroid planes of one subspace.
    fn subspace_planes(&self, subspace: usize) -> &[f32] {
        let len = self.dsub * self.config.codebook_size();
        &self.planes[subspace * len..][..len]
    }

    /// Bytes occupied by the codebooks themselves.
    pub fn codebook_bytes(&self) -> usize {
        self.config.m * self.config.codebook_size() * self.dsub * std::mem::size_of::<f32>()
    }

    /// Bytes needed to store one encoded vector.
    pub fn bytes_per_vector(&self) -> usize {
        self.config.bits_per_vector().div_ceil(8)
    }

    /// Encodes one vector into `m` centroid indices (Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != dim`.
    pub fn encode(&self, vector: &[f32]) -> Vec<u16> {
        let mut codes = vec![0u16; self.config.m];
        self.encode_into(vector, &mut codes);
        codes
    }

    /// Encodes one vector into a caller-provided buffer of `m` codes.
    ///
    /// The CPU is checked once per vector: on x86-64 with AVX2 every
    /// subspace's scan runs as an AVX2 build of the nearest-centroid scan
    /// that [`crate::kmeans::kmeans`] runs too, with the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != dim` or `codes.len() != m`.
    pub fn encode_into(&self, vector: &[f32], codes: &mut [u16]) {
        assert_eq!(vector.len(), self.dim, "encode dimension mismatch");
        assert_eq!(codes.len(), self.config.m, "encode code-count mismatch");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            return unsafe { self.encode_avx2(vector, codes) };
        }
        self.encode_subspaces(vector, codes);
    }

    /// The body of [`Self::encode_into`] that every instruction-set build
    /// compiles: one nearest-centroid scan per subspace.
    #[inline(always)]
    fn encode_subspaces(&self, vector: &[f32], codes: &mut [u16]) {
        let k = self.config.codebook_size();
        for (sub, (code, sv)) in codes
            .iter_mut()
            .zip(vector.chunks_exact(self.dsub))
            .enumerate()
        {
            *code = nearest(sv, self.subspace_planes(sub), k).0 as u16;
        }
    }

    /// [`Self::encode_subspaces`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn encode_avx2(&self, vector: &[f32], codes: &mut [u16]) {
        self.encode_subspaces(vector, codes);
    }

    /// Encodes every row of a `[n, dim]` matrix into a [`PqCodes`] block.
    ///
    /// # Panics
    ///
    /// Panics if the matrix width differs from `dim`.
    pub fn encode_matrix(&self, data: &Matrix) -> PqCodes {
        assert_eq!(data.cols(), self.dim, "encode_matrix dimension mismatch");
        let mut codes = PqCodes::with_capacity(self.config, data.rows());
        let mut row = vec![0u16; self.config.m];
        for r in 0..data.rows() {
            self.encode_into(data.row(r), &mut row);
            codes.push(&row);
        }
        codes
    }

    /// Decodes `m` centroid indices back into a full vector (Eq. 5).
    pub fn decode(&self, codes: &[u16]) -> Vec<f32> {
        assert_eq!(codes.len(), self.config.m, "decode code-count mismatch");
        let mut out = vec![0.0f32; self.dim];
        self.decode_into(codes, &mut out);
        out
    }

    /// Decodes into a caller-provided buffer of length `dim`.
    ///
    /// # Panics
    ///
    /// Panics if buffer or code lengths are wrong.
    pub fn decode_into(&self, codes: &[u16], out: &mut [f32]) {
        assert_eq!(codes.len(), self.config.m, "decode code-count mismatch");
        assert_eq!(out.len(), self.dim, "decode buffer length mismatch");
        for (sub, (&code, slot)) in codes
            .iter()
            .zip(out.chunks_exact_mut(self.dsub))
            .enumerate()
        {
            slot.copy_from_slice(self.centroid(sub, code as usize));
        }
    }

    /// Decodes every vector of a code block into consecutive `dim`-wide rows
    /// of `out` (`codes.len() * dim` floats), each an exact copy of its
    /// centroids — the rows [`Self::decode_into`] writes. 8-bit codes are
    /// read straight from the packed bytes, one byte per subspace; other
    /// widths go through [`PqCodes::walk_row`]. Neither unpacks to `u16`.
    ///
    /// # Panics
    ///
    /// Panics if the block's configuration differs from this codebook's or
    /// `out` is not `codes.len() * dim` long.
    pub fn decode_rows_into(&self, codes: &PqCodes, out: &mut [f32]) {
        assert_eq!(codes.config(), self.config, "decode config mismatch");
        assert_eq!(
            out.len(),
            codes.len() * self.dim,
            "decode buffer length mismatch"
        );
        let (dim, dsub) = (self.dim, self.dsub);
        if self.config.nbits == 8 {
            let packed = &codes.packed_bytes()[..codes.len() * self.config.m];
            for (row, slot) in packed
                .chunks_exact(self.config.m)
                .zip(out.chunks_exact_mut(dim))
            {
                for (sub, (&code, dst)) in row.iter().zip(slot.chunks_exact_mut(dsub)).enumerate() {
                    dst.copy_from_slice(&self.rows[code as usize * dim + sub * dsub..][..dsub]);
                }
            }
        } else {
            for (i, slot) in out.chunks_exact_mut(dim).enumerate() {
                codes.walk_row(i, |sub, code| {
                    slot[sub * dsub..(sub + 1) * dsub]
                        .copy_from_slice(&self.rows[code * dim + sub * dsub..][..dsub]);
                });
            }
        }
    }

    /// Decodes every vector in a code block back into a `[n, dim]` matrix.
    pub fn decode_matrix(&self, codes: &PqCodes) -> Matrix {
        let mut out = Matrix::zeros(codes.len(), self.dim);
        self.decode_rows_into(codes, out.as_mut_slice());
        out
    }

    /// Builds the per-subspace inner-product lookup table for a query
    /// (`q × ∥ C_iᵀ` in Eq. 7): entry `[sub][c]` is the dot product of the
    /// query's `sub`-th subvector with centroid `c` of that subspace.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    pub fn score_lut(&self, query: &[f32]) -> ScoreLut {
        let mut lut = ScoreLut::empty();
        lut.fill_from(self, query);
        lut
    }

    /// Mean squared reconstruction error of this codebook on `data`.
    pub fn reconstruction_mse(&self, data: &Matrix) -> f64 {
        let codes = self.encode_matrix(data);
        self.decode_matrix(&codes).mse(data)
    }
}

/// Bit-packed PQ codes for a growing sequence of vectors (one row of `m`
/// codes per cached token).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PqCodes {
    config: PqConfig,
    packed: PackedCodes,
    len: usize,
}

impl PqCodes {
    /// Creates an empty code block for the given configuration.
    pub fn new(config: PqConfig) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates an empty code block with room for `rows` vectors, so pushing
    /// that many never reallocates.
    pub fn with_capacity(config: PqConfig, rows: usize) -> Self {
        Self {
            config,
            packed: PackedCodes::with_capacity(config.nbits, rows * config.m),
            len: 0,
        }
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configuration of the owning quantizer.
    pub fn config(&self) -> PqConfig {
        self.config
    }

    /// Appends the codes of one vector.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != m`.
    pub fn push(&mut self, codes: &[u16]) {
        assert_eq!(codes.len(), self.config.m, "push code-count mismatch");
        self.packed.extend_from_slice(codes);
        self.len += 1;
    }

    /// Appends every vector of another code block with the same config.
    ///
    /// When the running bit cursor is byte-aligned (always true for the
    /// kernel layouts, where `m * nbits` is a multiple of 8) this is a
    /// single packed-byte copy instead of an unpack/re-pack round trip.
    ///
    /// # Panics
    ///
    /// Panics if configurations differ.
    pub fn append(&mut self, other: &PqCodes) {
        assert_eq!(self.config, other.config, "append config mismatch");
        self.packed.extend_packed(&other.packed);
        self.len += other.len;
    }

    /// Reads the codes of vector `index` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len` or `out.len() != m`.
    #[inline]
    pub fn read_into(&self, index: usize, out: &mut [u16]) {
        assert_eq!(out.len(), self.config.m, "output code-count mismatch");
        self.walk_row(index, |sub, code| out[sub] = code as u16);
    }

    /// Calls `f(subspace, code)` for every code of vector `index`, in
    /// subspace order.
    ///
    /// This is the kernel-facing access path: for byte-aligned rows it reads
    /// the packed bytes directly with unrolled 4-/6-/8-bit decoders (the CPU
    /// analogue of the paper's `float4`-granularity shared-memory loads), so
    /// the per-code cost is a shift and a mask instead of the general
    /// bit-cursor arithmetic of [`PackedCodes::get`]. Unaligned layouts fall
    /// back to the generic path.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn walk_row(&self, index: usize, mut f: impl FnMut(usize, usize)) {
        assert!(index < self.len, "code index out of bounds");
        let m = self.config.m;
        let row_bits = m * self.config.nbits as usize;
        if row_bits.is_multiple_of(8) {
            let row_bytes = row_bits / 8;
            let data = self.packed.as_bytes();
            let row = &data[index * row_bytes..(index + 1) * row_bytes];
            match self.config.nbits {
                8 => {
                    for (sub, &b) in row.iter().enumerate() {
                        f(sub, b as usize);
                    }
                    return;
                }
                4 => {
                    // Two codes per byte, LSB-first.
                    for (i, &b) in row.iter().enumerate() {
                        f(2 * i, (b & 0x0F) as usize);
                        f(2 * i + 1, (b >> 4) as usize);
                    }
                    return;
                }
                6 => {
                    // Four codes per three bytes, LSB-first.
                    for (i, chunk) in row.chunks_exact(3).enumerate() {
                        let (b0, b1, b2) =
                            (chunk[0] as usize, chunk[1] as usize, chunk[2] as usize);
                        f(4 * i, b0 & 0x3F);
                        f(4 * i + 1, (b0 >> 6) | ((b1 & 0x0F) << 2));
                        f(4 * i + 2, (b1 >> 4) | ((b2 & 0x03) << 4));
                        f(4 * i + 3, b2 >> 2);
                    }
                    return;
                }
                _ => {}
            }
        }
        let base = index * m;
        for sub in 0..m {
            f(sub, self.packed.get(base + sub) as usize);
        }
    }

    /// Code of vector `index` in subspace `sub`.
    #[inline]
    pub fn code(&self, index: usize, sub: usize) -> u16 {
        self.packed.get(index * self.config.m + sub)
    }

    /// Packed storage bytes for the codes (excluding codebooks).
    pub fn memory_bytes(&self) -> usize {
        self.packed.byte_len()
    }

    /// Copies the codes of `n` vectors starting at row `start` into a new
    /// block (a byte-slice copy for the byte-aligned kernel layouts).
    ///
    /// # Panics
    ///
    /// Panics if `start + n > len`.
    pub fn clone_rows(&self, start: usize, n: usize) -> PqCodes {
        assert!(start + n <= self.len, "clone_rows out of bounds");
        Self {
            config: self.config,
            packed: self
                .packed
                .clone_range(start * self.config.m, n * self.config.m),
            len: n,
        }
    }

    /// Removes and returns the first `n` vectors — how a cache hands the
    /// oldest quantized tokens over to a sealed, shareable block.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn take_front(&mut self, n: usize) -> PqCodes {
        let front = self.clone_rows(0, n);
        self.drop_front(n);
        front
    }

    /// Drops the first `n` vectors.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn drop_front(&mut self, n: usize) {
        assert!(n <= self.len, "drop_front out of bounds");
        self.packed.drop_front(n * self.config.m);
        self.len -= n;
    }

    /// Borrowed view of the packed storage (see [`PackedCodes::as_bytes`] for
    /// the layout), for persistence.
    pub fn packed_bytes(&self) -> &[u8] {
        self.packed.as_bytes()
    }

    /// Rebuilds a code block from its configuration and persisted packed
    /// bytes — the inverse of ([`PqCodes::len`], [`PqCodes::packed_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] if the byte count does not match
    /// the `rows * m` codes the layout requires.
    pub fn from_raw_parts(
        config: PqConfig,
        rows: usize,
        data: Vec<u8>,
    ) -> Result<Self, QuantError> {
        let packed = PackedCodes::from_raw_parts(config.nbits, rows * config.m, data)?;
        Ok(Self {
            config,
            packed,
            len: rows,
        })
    }
}

/// Per-subspace inner-product lookup table for one query.
#[derive(Debug, Clone)]
pub struct ScoreLut {
    m: usize,
    k: usize,
    table: Vec<f32>,
}

impl ScoreLut {
    /// Creates an empty table, to be (re)filled with
    /// [`ScoreLut::fill_from`]. A decode scratch holds one and refills it
    /// for every `(layer, head)` query without reallocating.
    pub fn empty() -> Self {
        Self {
            m: 0,
            k: 0,
            table: Vec::new(),
        }
    }

    /// Recomputes the table for `query` against `codebook`, reusing the
    /// existing allocation (Eq. 7's `q × C_iᵀ` per subspace).
    ///
    /// Each subspace row is `dsub` axpys of a centroid plane into `k`
    /// contiguous entries. Per entry the additions associate exactly as
    /// [`million_tensor::ops::dot`] does — from `0.0`, one `+=` of
    /// `((q0·p0 + q1·p1) + q2·p2) + q3·p3` per full group of four channels,
    /// then one `+=` per remaining channel — so the table is bit-identical
    /// to a per-entry `dot(q_sub, centroid)`.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != codebook.dim()`.
    pub fn fill_from(&mut self, codebook: &PqCodebook, query: &[f32]) {
        assert_eq!(query.len(), codebook.dim(), "score_lut dimension mismatch");
        let m = codebook.config.m;
        let k = codebook.config.codebook_size();
        self.m = m;
        self.k = k;
        self.table.resize(m * k, 0.0);
        for (sub, (row, q_sub)) in self
            .table
            .chunks_exact_mut(k)
            .zip(query.chunks_exact(codebook.dsub))
            .enumerate()
        {
            row.fill(0.0);
            let planes = codebook.subspace_planes(sub);
            let mut q_groups = q_sub.chunks_exact(4);
            let mut plane_groups = planes.chunks_exact(4 * k);
            for (q, p) in (&mut q_groups).zip(&mut plane_groups) {
                let (p0, p1, p2, p3) = (&p[..k], &p[k..2 * k], &p[2 * k..3 * k], &p[3 * k..]);
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot += q[0] * p0[c] + q[1] * p1[c] + q[2] * p2[c] + q[3] * p3[c];
                }
            }
            for (&q, plane) in q_groups
                .remainder()
                .iter()
                .zip(plane_groups.remainder().chunks_exact(k))
            {
                for (slot, &p) in row.iter_mut().zip(plane) {
                    *slot += q * p;
                }
            }
        }
    }

    /// Number of subspaces.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codebook size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Table entry for `(subspace, code)`.
    #[inline]
    pub fn get(&self, sub: usize, code: u16) -> f32 {
        self.table[sub * self.k + code as usize]
    }

    /// Computes the approximate logits of the query against every vector of a
    /// code block, appending them to `out`. This is the CPU analogue of the
    /// paper's LUT-in-shared-memory CUDA kernel.
    pub fn scores(&self, codes: &PqCodes, out: &mut Vec<f32>) {
        let start = out.len();
        out.resize(start + codes.len(), 0.0);
        self.scores_into(codes, &mut out[start..]);
    }

    /// Writes the approximate logit of every vector of `codes` into
    /// `out[..codes.len()]`, reading the packed rows directly (no unpacked
    /// intermediate, no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `codes` has a different subspace count or `out` is shorter
    /// than `codes.len()`.
    pub fn scores_into(&self, codes: &PqCodes, out: &mut [f32]) {
        assert_eq!(codes.config().m, self.m, "scores subspace count mismatch");
        assert!(out.len() >= codes.len(), "score buffer too short");
        let k = self.k;
        let table = &self.table;
        for (i, slot) in out.iter_mut().enumerate().take(codes.len()) {
            let mut acc = 0.0f32;
            codes.walk_row(i, |sub, code| acc += table[sub * k + code]);
            *slot = acc;
        }
    }

    /// Fused score + online-softmax + value-mass kernel: a single pass over
    /// the packed key and value codes replaces the two-pass
    /// (materialise-scores, then accumulate) structure.
    ///
    /// For every cached token the key row is scored through the table, the
    /// running softmax maximum is updated flash-decoding style (rescaling
    /// the centroid-mass accumulator on the rare occasions the maximum
    /// moves), and the token's softmax weight is credited to the value
    /// centroids its codes select — so each code byte is read exactly once
    /// and no score vector ever exists.
    ///
    /// `alibi` is the optional `(slope, query_position)` pair for ALiBi
    /// models. `acc` is reshaped for `value_codes` and reset internally;
    /// afterwards it holds the per-centroid softmax mass (relative to the
    /// returned maximum). Returns the `(max_score, sum_exp)` pair for
    /// merging with other segments via an online softmax.
    ///
    /// Note: the online rescaling reassociates the `exp` arithmetic, so
    /// results can differ from the two-pass kernel by ~1e-7 relative — the
    /// unavoidable float-reassociation cost of fusing the max into the pass.
    ///
    /// # Panics
    ///
    /// Panics if the key/value code blocks hold different token counts or
    /// `key_codes` does not match this table's subspace count.
    pub fn fused_attend(
        &self,
        key_codes: &PqCodes,
        value_codes: &PqCodes,
        scale: f32,
        alibi: Option<(f32, usize)>,
        acc: &mut ValueAccumulator,
    ) -> (f32, f32) {
        acc.ensure_shape(value_codes.config().m, value_codes.config().codebook_size());
        acc.reset();
        let mut state = FusedState::new();
        let alibi = alibi.map(|(slope, query_pos)| FusedAlibi {
            slope,
            query_pos,
            base_pos: 0,
        });
        self.fused_attend_chunk(key_codes, value_codes, scale, alibi, acc, &mut state);
        (state.max_score, state.sum_exp)
    }

    /// Resumable form of [`ScoreLut::fused_attend`] for paged code storage:
    /// processes one contiguous chunk of a longer token range, continuing the
    /// online softmax carried in `state` and accumulating into `acc` (which
    /// the caller must have shaped and reset before the first chunk).
    ///
    /// Feeding the chunks of a block chain through this kernel in the same
    /// token order performs the *identical* arithmetic sequence as one
    /// [`ScoreLut::fused_attend`] call over monolithic codes — chunk
    /// boundaries introduce no reassociation, so paged attention is
    /// bit-identical to unpaged attention.
    ///
    /// `alibi.base_pos` is the absolute position of the chunk's first token
    /// (positions only matter for the ALiBi bias). As in the monolithic
    /// kernel, tokens inside an ALiBi chunk are walked newest-first; callers
    /// should also feed the chunks themselves newest-first under ALiBi so the
    /// running maximum settles early.
    ///
    /// The chunk is walked in blocks of up to `WALK_BLOCK` tokens, in three
    /// phases per block:
    ///
    /// 1. score every token of the block into a stack buffer (for 8-bit
    ///    codes, and 4-bit codes with an even `m`, the table chains of
    ///    `SCORE_LANES` tokens advance together; each token still sums its
    ///    subspaces in order from `0.0`);
    /// 2. token by token, in walk order, apply scale and ALiBi, move the
    ///    running maximum and `sum_exp`, and store the token's weight;
    /// 3. scatter the stored weights into the centroid mass.
    ///
    /// Phase 2 scatters the tokens still pending before it rescales the mass.
    /// Every mass bucket therefore receives the same adds, in the same token
    /// order, between the same rescales as a token-at-a-time walk — the
    /// result is bit-identical to it (`docs/PERF.md`, "The code walk").
    ///
    /// # Panics
    ///
    /// Panics if the key/value chunks hold different token counts,
    /// `key_codes` does not match this table's subspace count, or
    /// `value_codes` does not match `acc`'s subspace count and codebook size.
    pub fn fused_attend_chunk(
        &self,
        key_codes: &PqCodes,
        value_codes: &PqCodes,
        scale: f32,
        alibi: Option<FusedAlibi>,
        acc: &mut ValueAccumulator,
        state: &mut FusedState,
    ) {
        let n = key_codes.len();
        assert_eq!(n, value_codes.len(), "key/value token count mismatch");
        assert_eq!(
            key_codes.config().m,
            self.m,
            "fused_attend subspace count mismatch"
        );
        let value_config = value_codes.config();
        assert!(
            value_config.m == acc.m && value_config.codebook_size() == acc.k,
            "value codes are {} x {} but the accumulator is {} x {}",
            value_config.m,
            value_config.codebook_size(),
            acc.m,
            acc.k
        );
        // ALiBi bias grows with token position, so a forward walk would move
        // the running maximum on ~every token once the linear trend dominates
        // score noise — each move rescaling the whole m*k mass buffer. Walk
        // newest-to-oldest in that case: the bias then *decreases*, the max
        // settles within the first few tokens, and rescales stay rare (the
        // per-centroid sums and `sum_exp` are order-independent up to float
        // rounding).
        let newest_first = alibi.is_some();
        let mut scores = [0.0f32; WALK_BLOCK];
        let mut weights = [0.0f32; WALK_BLOCK];
        for block in 0..n.div_ceil(WALK_BLOCK) {
            // Rows `lo..lo + len` of the chunk; newest first, blocks are taken
            // from its end.
            let done = block * WALK_BLOCK;
            let len = WALK_BLOCK.min(n - done);
            let lo = if newest_first { n - done - len } else { done };
            self.score_rows(key_codes, lo, &mut scores[..len]);
            // `scores` and `weights` are indexed by row within the block; the
            // tokens walked since the last scatter are `pending..step`.
            let row = |step: usize| if newest_first { len - 1 - step } else { step };
            let mut pending = 0;
            for step in 0..len {
                let r = row(step);
                let mut score = scores[r] * scale;
                if let Some(FusedAlibi {
                    slope,
                    query_pos,
                    base_pos,
                }) = alibi
                {
                    score += million_tensor::alibi::alibi_bias(slope, query_pos, base_pos + lo + r);
                }
                if score > state.max_score {
                    if state.max_score != f32::NEG_INFINITY {
                        acc.scatter_walked(
                            value_codes,
                            lo,
                            &weights[..len],
                            pending..step,
                            newest_first,
                        );
                        pending = step;
                        let rescale = (state.max_score - score).exp();
                        state.sum_exp *= rescale;
                        acc.rescale(rescale);
                    }
                    state.max_score = score;
                }
                let w = (score - state.max_score).exp();
                state.sum_exp += w;
                weights[r] = w;
            }
            acc.scatter_walked(value_codes, lo, &weights[..len], pending..len, newest_first);
        }
    }

    /// Phase 1 of [`ScoreLut::fused_attend_chunk`]: the logit of every row
    /// `lo..lo + out.len()` of `codes` into `out`, each one summed over its
    /// subspaces in order from `0.0`.
    #[inline]
    fn score_rows(&self, codes: &PqCodes, lo: usize, out: &mut [f32]) {
        match (codes.config().nbits, self.k, self.m % 2) {
            (8, 256, _) => self.score_packed::<256, 1>(codes, lo, out),
            (4, 16, 0) => self.score_packed::<16, 2>(codes, lo, out),
            _ => {
                for (r, slot) in out.iter_mut().enumerate() {
                    let mut score = 0.0f32;
                    codes.walk_row(lo + r, |sub, code| score += self.table[sub * self.k + code]);
                    *slot = score;
                }
            }
        }
    }

    /// [`ScoreLut::score_rows`] for rows of `PER_BYTE` codes per byte from a
    /// codebook of `K` entries: a code indexes a `[f32; K]` table row
    /// without a bounds check, and `SCORE_LANES` independent chains hide the
    /// latency of each add.
    #[inline]
    fn score_packed<const K: usize, const PER_BYTE: usize>(
        &self,
        codes: &PqCodes,
        lo: usize,
        out: &mut [f32],
    ) {
        let row_bytes = self.m / PER_BYTE;
        let table = &self.table.as_chunks::<K>().0[..self.m];
        let rows = &codes.packed_bytes()[lo * row_bytes..(lo + out.len()) * row_bytes];
        let mut lanes = out.chunks_exact_mut(SCORE_LANES);
        let mut groups = rows.chunks_exact(SCORE_LANES * row_bytes);
        for (slots, group) in (&mut lanes).zip(&mut groups) {
            let tokens: [&[u8]; SCORE_LANES] =
                std::array::from_fn(|l| &group[l * row_bytes..][..row_bytes]);
            let mut sums = [0.0f32; SCORE_LANES];
            for (i, entries) in table.chunks_exact(PER_BYTE).enumerate() {
                for (j, entries) in entries.iter().enumerate() {
                    for (sum, token) in sums.iter_mut().zip(&tokens) {
                        *sum += entries[packed_code::<K, PER_BYTE>(token[i], j)];
                    }
                }
            }
            slots.copy_from_slice(&sums);
        }
        for (slot, token) in lanes
            .into_remainder()
            .iter_mut()
            .zip(groups.remainder().chunks_exact(row_bytes))
        {
            let mut score = 0.0f32;
            for (entries, &byte) in table.chunks_exact(PER_BYTE).zip(token) {
                for (j, entries) in entries.iter().enumerate() {
                    score += entries[packed_code::<K, PER_BYTE>(byte, j)];
                }
            }
            *slot = score;
        }
    }
}

/// Code `j` of a byte holding `PER_BYTE` codes LSB-first, for a codebook of
/// `K` entries — below `K` by construction, so it indexes a `[f32; K]`
/// without a bounds check.
#[inline(always)]
fn packed_code<const K: usize, const PER_BYTE: usize>(byte: u8, j: usize) -> usize {
    (byte as usize >> (j * 8 / PER_BYTE)) & (K - 1)
}

/// Tokens per block of [`ScoreLut::fused_attend_chunk`] — the block store's
/// block size, so a paged chain walks one block per kernel block.
const WALK_BLOCK: usize = 32;

/// Tokens whose table chains advance together when packed keys are scored.
const SCORE_LANES: usize = 8;

/// Running online-softmax state threaded through
/// [`ScoreLut::fused_attend_chunk`] calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedState {
    /// Largest (scaled, biased) score seen so far.
    pub max_score: f32,
    /// Sum of `exp(score - max_score)` over the tokens seen so far.
    pub sum_exp: f32,
}

impl FusedState {
    /// The neutral state before any token has been scored.
    pub fn new() -> Self {
        Self {
            max_score: f32::NEG_INFINITY,
            sum_exp: 0.0,
        }
    }
}

impl Default for FusedState {
    fn default() -> Self {
        Self::new()
    }
}

/// ALiBi parameters for one chunk of [`ScoreLut::fused_attend_chunk`].
#[derive(Debug, Clone, Copy)]
pub struct FusedAlibi {
    /// ALiBi slope of the attending head.
    pub slope: f32,
    /// Absolute position of the querying token.
    pub query_pos: usize,
    /// Absolute position of the chunk's first token.
    pub base_pos: usize,
}

/// Accumulates `sum_t w_t * decode(V_t)` without decoding each vector: the
/// weight of every token is added to the bucket of the centroid its code
/// selects, and the weighted centroid mix is produced once at the end.
///
/// This is the value-side half of the paper's fused decode kernel: the cost
/// is `O(n·M)` additions plus a single `O(2^nbits · dsub · M)` mix,
/// independent of how small the softmax weights are.
#[derive(Debug, Clone)]
pub struct ValueAccumulator {
    m: usize,
    k: usize,
    mass: Vec<f32>,
}

impl ValueAccumulator {
    /// Creates an accumulator for codebooks with `m` subspaces of size `k`.
    pub fn new(m: usize, k: usize) -> Self {
        Self {
            m,
            k,
            mass: vec![0.0; m * k],
        }
    }

    /// Creates an accumulator sized for a specific codebook.
    pub fn for_codebook(codebook: &PqCodebook) -> Self {
        Self::new(codebook.config().m, codebook.config().codebook_size())
    }

    /// Reshapes the accumulator for `m` subspaces of `k` centroids, reusing
    /// the mass buffer when it is already large enough. The mass is *not*
    /// cleared; call [`ValueAccumulator::reset`] to start a new reduction.
    pub fn ensure_shape(&mut self, m: usize, k: usize) {
        if self.m != m || self.k != k {
            self.m = m;
            self.k = k;
            self.mass.resize(m * k, 0.0);
        }
    }

    /// Zeroes the accumulated mass, keeping the allocation.
    pub fn reset(&mut self) {
        self.mass.iter_mut().for_each(|w| *w = 0.0);
    }

    /// Multiplies every accumulated weight by `factor` — the online-softmax
    /// rescale applied when a new running maximum is found mid-pass.
    #[inline]
    pub(crate) fn rescale(&mut self, factor: f32) {
        self.mass.iter_mut().for_each(|w| *w *= factor);
    }

    /// Adds `weight` to the centroid buckets selected by `codes`.
    #[cfg(test)]
    fn add(&mut self, weight: f32, codes: &[u16]) {
        debug_assert_eq!(codes.len(), self.m);
        for (sub, &code) in codes.iter().enumerate() {
            self.mass[sub * self.k + code as usize] += weight;
        }
    }

    /// Adds `weight` for the vector at `index` of a code block, reading the
    /// packed row directly.
    #[inline]
    pub fn add_indexed(&mut self, weight: f32, codes: &PqCodes, index: usize) {
        debug_assert_eq!(codes.config().m, self.m);
        let k = self.k;
        let mass = &mut self.mass;
        codes.walk_row(index, |sub, code| mass[sub * k + code] += weight);
    }

    /// Phase 3 of [`ScoreLut::fused_attend_chunk`]: adds the weights of the
    /// walk steps `steps` of a block to the mass, in walk order. The block
    /// is rows `lo..lo + weights.len()` of `codes`, `weights` is indexed by
    /// row within it, and newest first the walk runs from its last row down.
    ///
    /// 8-bit codes, and 4-bit codes with an even `m`, go subspace by
    /// subspace — every token's add to one `[f32; k]` mass row, then the
    /// next row — so no add waits on the `exp` of its token and no code is
    /// bounds-checked. Other layouts add token by token through
    /// [`ValueAccumulator::add_indexed`]. Either way each bucket receives
    /// its adds in walk order.
    #[inline]
    fn scatter_walked(
        &mut self,
        codes: &PqCodes,
        lo: usize,
        weights: &[f32],
        steps: Range<usize>,
        newest_first: bool,
    ) {
        let rows = if newest_first {
            weights.len() - steps.end..weights.len() - steps.start
        } else {
            steps
        };
        match (codes.config().nbits, self.m % 2) {
            (8, _) => self.scatter_packed::<256, 1>(codes, lo, weights, rows, newest_first),
            (4, 0) => self.scatter_packed::<16, 2>(codes, lo, weights, rows, newest_first),
            _ if newest_first => rows
                .rev()
                .for_each(|r| self.add_indexed(weights[r], codes, lo + r)),
            _ => rows.for_each(|r| self.add_indexed(weights[r], codes, lo + r)),
        }
    }

    /// [`ValueAccumulator::scatter_walked`] for rows of `PER_BYTE` codes per
    /// byte from a codebook of `K` entries, walking `rows` of the block.
    #[inline]
    fn scatter_packed<const K: usize, const PER_BYTE: usize>(
        &mut self,
        codes: &PqCodes,
        lo: usize,
        weights: &[f32],
        rows: Range<usize>,
        newest_first: bool,
    ) {
        let row_bytes = self.m / PER_BYTE;
        let tokens =
            &codes.packed_bytes()[(lo + rows.start) * row_bytes..(lo + rows.end) * row_bytes];
        let weights = &weights[rows];
        let mass = &mut self.mass.as_chunks_mut::<K>().0[..self.m];
        for (i, mass) in mass.chunks_exact_mut(PER_BYTE).enumerate() {
            let column = tokens.chunks_exact(row_bytes).zip(weights);
            if newest_first {
                add_column::<K, PER_BYTE>(mass, column.rev(), i);
            } else {
                add_column::<K, PER_BYTE>(mass, column, i);
            }
        }
    }

    /// Produces `sum_t w_t * decode(V_t)` by mixing centroids with the
    /// accumulated mass.
    ///
    /// Every output channel is one chain of `k` dependent adds
    /// (`out[ch] += mass[sub][c] * centroid_c[ch]` for ascending `c`), so the
    /// mix is latency-bound unless the chains of different channels advance
    /// together. The mass stays `[m][k]` (what the fused walk scatters into);
    /// here `MIX_TILE` centroids at a time are transposed into a stack tile
    /// `[centroid][subspace]` and mixed against the code-major centroid rows,
    /// 32 channels of a row per step — the same per-channel order as one
    /// axpy per `(subspace, centroid)`. Leftover subspaces, untiled
    /// sub-dimensions and large codebooks run that axpy loop itself.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != codebook.dim()` or the codebook shape differs
    /// from the accumulator shape.
    pub fn finish_into(&self, codebook: &PqCodebook, out: &mut [f32]) {
        assert_eq!(out.len(), codebook.dim(), "output buffer length mismatch");
        assert_eq!(codebook.config().m, self.m, "codebook m mismatch");
        assert_eq!(
            codebook.config().codebook_size(),
            self.k,
            "codebook k mismatch"
        );
        out.fill(0.0);
        // Mixing every centroid pays while there are few of them. Past
        // `DENSE_MIX_MAX_K` a short context leaves most of the mass zero and
        // skipping it wins (measured at k = 4096 and 65,536, whose rows do
        // not fit in cache): those keep the skipping loop below.
        let dense = self.k.is_multiple_of(MIX_TILE) && self.k <= DENSE_MIX_MAX_K;
        let tiled = match codebook.dsub {
            1 if dense => self.mix_tiles::<1, 16>(codebook, out),
            2 if dense => self.mix_tiles::<2, 16>(codebook, out),
            4 if dense => self.mix_tiles::<4, 8>(codebook, out),
            8 if dense => self.mix_tiles::<8, 4>(codebook, out),
            _ => 0,
        };
        for sub in tiled..self.m {
            let out = &mut out[sub * codebook.dsub..][..codebook.dsub];
            let planes = codebook.subspace_planes(sub);
            for (c, &w) in self.mass[sub * self.k..][..self.k].iter().enumerate() {
                if w != 0.0 {
                    for (o, plane) in out.iter_mut().zip(planes.chunks_exact(self.k)) {
                        *o += w * plane[c];
                    }
                }
            }
        }
    }

    /// Mixes the leading whole tiles of `SUBS` subspaces for a compile-time
    /// sub-dimension (`DSUB == codebook.dsub`, `k` a multiple of `MIX_TILE`)
    /// and returns how many subspaces that covered. `SUBS * DSUB` output
    /// channels — eight SSE registers — advance together.
    fn mix_tiles<const DSUB: usize, const SUBS: usize>(
        &self,
        codebook: &PqCodebook,
        out: &mut [f32],
    ) -> usize {
        let (k, dim) = (self.k, codebook.dim);
        let tiled = self.m - self.m % SUBS;
        let mut tile = [[0.0f32; SUBS]; MIX_TILE];
        for sub0 in (0..tiled).step_by(SUBS) {
            let mut acc = [[0.0f32; DSUB]; SUBS];
            let mass = &self.mass[sub0 * k..][..SUBS * k];
            for c0 in (0..k).step_by(MIX_TILE) {
                for s in 0..SUBS {
                    let lane = &mass[s * k + c0..][..MIX_TILE];
                    for cc in 0..MIX_TILE {
                        tile[cc][s] = lane[cc];
                    }
                }
                for (cc, weights) in tile.iter().enumerate() {
                    let row = &codebook.rows[(c0 + cc) * dim + sub0 * DSUB..][..SUBS * DSUB];
                    for s in 0..SUBS {
                        for j in 0..DSUB {
                            acc[s][j] += weights[s] * row[s * DSUB + j];
                        }
                    }
                }
            }
            for (o, a) in out[sub0 * DSUB..].chunks_exact_mut(DSUB).zip(&acc) {
                o.copy_from_slice(a);
            }
        }
        tiled
    }
}

/// Adds each token's weight to the buckets its byte `i` selects in the
/// `PER_BYTE` mass rows that byte codes.
#[inline(always)]
fn add_column<'a, const K: usize, const PER_BYTE: usize>(
    mass: &mut [[f32; K]],
    tokens: impl Iterator<Item = (&'a [u8], &'a f32)>,
    i: usize,
) {
    for (token, &w) in tokens {
        for (j, row) in mass.iter_mut().enumerate() {
            row[packed_code::<K, PER_BYTE>(token[i], j)] += w;
        }
    }
}

/// Centroids per stack tile of [`ValueAccumulator::finish_into`].
const MIX_TILE: usize = 16;

/// Largest codebook size [`ValueAccumulator::finish_into`] mixes densely.
const DENSE_MIX_MAX_K: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::reference::{fingerprint, lloyd, nearest_centroid, reference_scan};
    use million_tensor::init::{normal_matrix, seeded_rng};
    use million_tensor::ops::{axpy, dot, softmax_in_place};
    use proptest::prelude::*;

    fn training_data(seed: u64, n: usize, dim: usize) -> Matrix {
        normal_matrix(&mut seeded_rng(seed), n, dim, 0.0, 1.0)
    }

    fn small_codebook(seed: u64) -> (PqCodebook, Matrix) {
        let data = training_data(seed, 400, 32);
        let config = PqConfig::new(8, 6).unwrap();
        let cb = PqCodebook::train(&config, &data, &PqTrainOptions::default(), seed).unwrap();
        (cb, data)
    }

    #[test]
    fn config_validation() {
        assert!(PqConfig::new(0, 8).is_err());
        assert!(PqConfig::new(4, 0).is_err());
        assert!(PqConfig::new(4, 17).is_err());
        let c = PqConfig::new(32, 12).unwrap();
        assert_eq!(c.codebook_size(), 4096);
        assert_eq!(c.bits_per_vector(), 384);
    }

    #[test]
    fn bits_per_channel_matches_paper_settings() {
        // Paper footnote 2: (M=64, nbits=8) is the 3-bit setting and
        // (M=32, nbits=12) the 4-bit setting for d_head*heads-style dims.
        // For a 128-dim head: 64*8/128 = 4... the paper applies it to
        // the whole hidden K/V of 128 dims per head; ratios below are the
        // generic formula.
        let c3 = PqConfig::new(64, 8).unwrap();
        assert!((c3.bits_per_channel(128) - 4.0).abs() < 1e-9);
        let c4 = PqConfig::new(32, 12).unwrap();
        assert!((c4.bits_per_channel(128) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn train_rejects_indivisible_dimension() {
        let data = training_data(0, 64, 30);
        let config = PqConfig::new(8, 4).unwrap();
        assert!(matches!(
            PqCodebook::train(&config, &data, &PqTrainOptions::default(), 0),
            Err(QuantError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn train_rejects_empty_data() {
        let data = Matrix::zeros(0, 32);
        let config = PqConfig::new(8, 4).unwrap();
        assert!(PqCodebook::train(&config, &data, &PqTrainOptions::default(), 0).is_err());
    }

    #[test]
    fn train_names_a_non_finite_sample_row_instead_of_panicking() {
        // A NaN sample used to panic k-means++ at k >= 2 and an infinite one
        // to seed every later centroid at the last sample.
        for (nbits, row, value) in [(4, 37, f32::NAN), (6, 300, f32::INFINITY)] {
            let mut data = training_data(9, 512, 32);
            data.set(row, 5, value);
            let config = PqConfig::new(8, nbits).unwrap();
            let result = std::panic::catch_unwind(|| {
                PqCodebook::train(&config, &data, &PqTrainOptions::default(), 3)
            })
            .expect("training must not panic");
            match result {
                Err(QuantError::NonFinite(msg)) => {
                    assert!(msg.contains(&format!("row {row}")), "{msg}")
                }
                other => panic!("k = {}: expected NonFinite, got {other:?}", 1 << nbits),
            }
        }
        // A row the subsampling skips is never read.
        let mut data = training_data(9, 512, 32);
        data.set(1, 0, f32::NAN);
        let options = PqTrainOptions {
            max_samples: 256,
            ..PqTrainOptions::default()
        };
        let config = PqConfig::new(8, 4).unwrap();
        assert!(PqCodebook::train(&config, &data, &options, 3).is_ok());
    }

    #[test]
    fn encode_decode_roundtrip_shape_and_quality() {
        let (cb, data) = small_codebook(1);
        let codes = cb.encode_matrix(&data);
        assert_eq!(codes.len(), data.rows());
        let decoded = cb.decode_matrix(&codes);
        assert_eq!(decoded.shape(), data.shape());
        // Quantization error should be well below the data variance.
        let mse = decoded.mse(&data);
        assert!(mse < 0.5, "unexpectedly poor reconstruction: {mse}");
    }

    #[test]
    fn decoded_rows_are_the_centroids_decode_into_writes() {
        // 8 bits reads the packed bytes; 3, 4, 5 and 6 walk the rows.
        let data = training_data(4, 300, 32);
        for nbits in [3, 4, 5, 6, 8] {
            let config = PqConfig::new(8, nbits).unwrap();
            let cb = PqCodebook::train(&config, &data, &PqTrainOptions::default(), 5).unwrap();
            let codes = cb.encode_matrix(&data);
            let mut rows = vec![f32::NAN; codes.len() * 32];
            cb.decode_rows_into(&codes, &mut rows);
            let mut row_codes = vec![0u16; config.m];
            let mut expected = vec![0.0f32; 32];
            for (i, row) in rows.chunks_exact(32).enumerate() {
                codes.read_into(i, &mut row_codes);
                cb.decode_into(&row_codes, &mut expected);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(row), bits(&expected), "nbits {nbits}, row {i}");
            }
        }
    }

    #[test]
    fn more_bits_reduce_reconstruction_error() {
        let data = training_data(2, 600, 32);
        let opts = PqTrainOptions::default();
        let coarse = PqCodebook::train(&PqConfig::new(8, 3).unwrap(), &data, &opts, 7).unwrap();
        let fine = PqCodebook::train(&PqConfig::new(8, 7).unwrap(), &data, &opts, 7).unwrap();
        assert!(fine.reconstruction_mse(&data) < coarse.reconstruction_mse(&data));
    }

    #[test]
    fn more_subspaces_reduce_reconstruction_error() {
        let data = training_data(3, 600, 32);
        let opts = PqTrainOptions::default();
        let few = PqCodebook::train(&PqConfig::new(4, 5).unwrap(), &data, &opts, 7).unwrap();
        let many = PqCodebook::train(&PqConfig::new(16, 5).unwrap(), &data, &opts, 7).unwrap();
        assert!(many.reconstruction_mse(&data) < few.reconstruction_mse(&data));
    }

    #[test]
    fn outlier_channels_survive_pq() {
        // The "outlier-immunized" claim: a channel with 50x magnitude still
        // reconstructs with small *relative* error because its subspace's
        // centroids stretch to cover it.
        let mut data = training_data(4, 800, 32);
        for r in 0..data.rows() {
            let v = data.get(r, 0) * 50.0;
            data.set(r, 0, v);
        }
        let config = PqConfig::new(8, 8).unwrap();
        let cb = PqCodebook::train(&config, &data, &PqTrainOptions::default(), 11).unwrap();
        let decoded = cb.decode_matrix(&cb.encode_matrix(&data));
        let mut err = 0.0f64;
        let mut mag = 0.0f64;
        for r in 0..data.rows() {
            err += ((decoded.get(r, 0) - data.get(r, 0)) as f64).powi(2);
            mag += (data.get(r, 0) as f64).powi(2);
        }
        assert!(
            err / mag < 0.05,
            "relative outlier-channel error too big: {}",
            err / mag
        );
    }

    #[test]
    fn score_lut_matches_explicit_decode_dot() {
        let (cb, data) = small_codebook(5);
        let codes = cb.encode_matrix(&data);
        let query: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
        let lut = cb.score_lut(&query);
        let decoded = cb.decode_matrix(&codes);
        let mut lut_scores = Vec::new();
        lut.scores(&codes, &mut lut_scores);
        for (i, &score) in lut_scores.iter().enumerate() {
            let exact = dot(&query, decoded.row(i));
            assert!(
                (score - exact).abs() < 1e-3,
                "token {i}: {} vs {}",
                score,
                exact
            );
        }
    }

    #[test]
    fn value_accumulator_matches_decode_then_weighted_sum() {
        let (cb, data) = small_codebook(6);
        let codes = cb.encode_matrix(&data.slice_rows(0..64));
        let mut weights: Vec<f32> = (0..64).map(|i| ((i * 37 % 11) as f32) - 5.0).collect();
        softmax_in_place(&mut weights);

        // Reference: decode everything, weighted sum.
        let decoded = cb.decode_matrix(&codes);
        let mut expected = vec![0.0f32; 32];
        for (i, &w) in weights.iter().enumerate() {
            axpy(w, decoded.row(i), &mut expected);
        }

        // Accumulator path.
        let mut acc = ValueAccumulator::for_codebook(&cb);
        for (i, &w) in weights.iter().enumerate() {
            acc.add_indexed(w, &codes, i);
        }
        let mut got = vec![0.0f32; 32];
        acc.finish_into(&cb, &mut got);

        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-4, "{g} vs {e}");
        }
    }

    #[test]
    fn scores_into_matches_append_variant() {
        let (cb, data) = small_codebook(20);
        let codes = cb.encode_matrix(&data.slice_rows(0..50));
        let query: Vec<f32> = (0..32).map(|i| (i as f32 * 0.17).cos()).collect();
        let lut = cb.score_lut(&query);
        let mut appended = vec![-1.0f32; 3];
        lut.scores(&codes, &mut appended);
        let mut direct = vec![0.0f32; 50];
        lut.scores_into(&codes, &mut direct);
        assert_eq!(&appended[..3], &[-1.0, -1.0, -1.0]);
        assert_eq!(&appended[3..], &direct[..]);
    }

    #[test]
    fn fill_from_reuses_allocation_and_matches_fresh_lut() {
        let (cb, _) = small_codebook(21);
        let q1: Vec<f32> = (0..32).map(|i| (i as f32 * 0.31).sin()).collect();
        let q2: Vec<f32> = (0..32).map(|i| 0.2 * i as f32 - 3.0).collect();
        let mut reused = ScoreLut::empty();
        reused.fill_from(&cb, &q1);
        reused.fill_from(&cb, &q2); // refill with a different query
        let fresh = cb.score_lut(&q2);
        assert_eq!(reused.m(), fresh.m());
        assert_eq!(reused.k(), fresh.k());
        assert_eq!(reused.table, fresh.table);
    }

    #[test]
    fn fused_attend_matches_two_pass_reference() {
        for (m, nbits, alibi) in [
            (8usize, 4u8, None),
            (8, 6, Some((0.4f32, 63usize))),
            (4, 8, None),
        ] {
            let data = training_data(22, 400, 32);
            let config = PqConfig::new(m, nbits).unwrap();
            let opts = PqTrainOptions::default();
            let key_cb = PqCodebook::train(&config, &data, &opts, 5).unwrap();
            let value_cb = PqCodebook::train(&config, &data, &opts, 6).unwrap();
            let tokens = data.slice_rows(0..64);
            let key_codes = key_cb.encode_matrix(&tokens);
            let value_codes = value_cb.encode_matrix(&tokens);
            let query: Vec<f32> = (0..32).map(|i| (i as f32 * 0.23).sin()).collect();
            let lut = key_cb.score_lut(&query);
            let scale = 0.25f32;

            // Two-pass reference: materialised scores, exact max, then mass.
            let mut scores = vec![0.0f32; 64];
            lut.scores_into(&key_codes, &mut scores);
            for (t, s) in scores.iter_mut().enumerate() {
                *s *= scale;
                if let Some((slope, qpos)) = alibi {
                    *s += million_tensor::alibi::alibi_bias(slope, qpos, t);
                }
            }
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            let mut ref_acc = ValueAccumulator::for_codebook(&value_cb);
            for (t, &s) in scores.iter().enumerate() {
                let w = (s - max).exp();
                sum += w;
                ref_acc.add_indexed(w, &value_codes, t);
            }
            let mut expected = vec![0.0f32; 32];
            ref_acc.finish_into(&value_cb, &mut expected);
            expected.iter_mut().for_each(|v| *v /= sum);

            // Fused kernel.
            let mut acc = ValueAccumulator::new(1, 1); // wrong shape on purpose
            let (fmax, fsum) = lut.fused_attend(&key_codes, &value_codes, scale, alibi, &mut acc);
            assert!((fmax - max).abs() < 1e-5, "max {fmax} vs {max}");
            let mut got = vec![0.0f32; 32];
            acc.finish_into(&value_cb, &mut got);
            got.iter_mut().for_each(|v| *v /= fsum);

            for (g, e) in got.iter().zip(expected.iter()) {
                assert!(
                    (g - e).abs() < 1e-5,
                    "m={m} nbits={nbits}: {g} vs {e} (fused vs two-pass)"
                );
            }
        }
    }

    #[test]
    fn chunked_fused_attend_is_bit_identical_to_monolithic() {
        // The paged cache walks a block chain through fused_attend_chunk;
        // splitting anywhere (including unaligned odd chunks) must reproduce
        // the monolithic kernel's arithmetic exactly, with and without ALiBi.
        for (m, nbits, alibi) in [
            (8usize, 4u8, None),
            (8, 6, Some((0.4f32, 63usize))),
            (4, 8, Some((0.1, 80))),
            (5, 7, None), // unaligned row width exercises the bit-cursor path
        ] {
            let data = training_data(31, 300, m * 4);
            let dim = data.cols();
            let config = PqConfig::new(m, nbits).unwrap();
            let opts = PqTrainOptions::default();
            let key_cb = PqCodebook::train(&config, &data, &opts, 2).unwrap();
            let value_cb = PqCodebook::train(&config, &data, &opts, 3).unwrap();
            let tokens = data.slice_rows(0..64);
            let key_codes = key_cb.encode_matrix(&tokens);
            let value_codes = value_cb.encode_matrix(&tokens);
            let query: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.29).sin()).collect();
            let lut = key_cb.score_lut(&query);
            let scale = 0.3f32;

            let mut mono_acc = ValueAccumulator::for_codebook(&value_cb);
            let (mono_max, mono_sum) =
                lut.fused_attend(&key_codes, &value_codes, scale, alibi, &mut mono_acc);

            for splits in [
                vec![64usize],
                vec![17, 47],
                vec![1, 30, 33],
                vec![13, 13, 13, 25],
            ] {
                let mut chunks_k = Vec::new();
                let mut chunks_v = Vec::new();
                let mut start = 0;
                for n in &splits {
                    chunks_k.push(key_codes.clone_rows(start, *n));
                    chunks_v.push(value_codes.clone_rows(start, *n));
                    start += n;
                }
                let mut acc = ValueAccumulator::for_codebook(&value_cb);
                acc.reset();
                let mut state = FusedState::new();
                // Under ALiBi feed newest chunk first, exactly as the paged
                // cache does; otherwise oldest first.
                let order: Vec<usize> = if alibi.is_some() {
                    (0..splits.len()).rev().collect()
                } else {
                    (0..splits.len()).collect()
                };
                for &c in &order {
                    let base: usize = splits[..c].iter().sum();
                    let chunk_alibi = alibi.map(|(slope, query_pos)| FusedAlibi {
                        slope,
                        query_pos,
                        base_pos: base,
                    });
                    lut.fused_attend_chunk(
                        &chunks_k[c],
                        &chunks_v[c],
                        scale,
                        chunk_alibi,
                        &mut acc,
                        &mut state,
                    );
                }
                assert_eq!(state.max_score.to_bits(), mono_max.to_bits(), "m={m}");
                assert_eq!(state.sum_exp.to_bits(), mono_sum.to_bits(), "m={m}");
                let mut got = vec![0.0f32; dim];
                let mut want = vec![0.0f32; dim];
                acc.finish_into(&value_cb, &mut got);
                mono_acc.finish_into(&value_cb, &mut want);
                for (g, w) in got.iter().zip(want.iter()) {
                    assert_eq!(g.to_bits(), w.to_bits(), "m={m} nbits={nbits}");
                }
            }
        }
    }

    #[test]
    fn clone_take_drop_rows_match_reference() {
        for (m, nbits) in [(8usize, 4u8), (8, 6), (4, 8), (5, 7)] {
            let config = PqConfig::new(m, nbits).unwrap();
            let max = (1u32 << nbits) as u16;
            let rows: Vec<Vec<u16>> = (0..23)
                .map(|r| (0..m).map(|s| ((r * 13 + s * 7) as u16) % max).collect())
                .collect();
            let mut codes = PqCodes::new(config);
            for row in &rows {
                codes.push(row);
            }
            let mid = codes.clone_rows(5, 9);
            let mut buf = vec![0u16; m];
            for (i, row) in rows[5..14].iter().enumerate() {
                mid.read_into(i, &mut buf);
                assert_eq!(&buf, row, "m={m} nbits={nbits}");
            }
            let mut rest = codes.clone();
            let front = rest.take_front(6);
            assert_eq!(front.len(), 6);
            assert_eq!(rest.len(), 17);
            for (i, row) in rows.iter().enumerate() {
                let (block, local) = if i < 6 { (&front, i) } else { (&rest, i - 6) };
                block.read_into(local, &mut buf);
                assert_eq!(&buf, row, "m={m} nbits={nbits} row {i}");
            }
            // Roundtrip through the persistence raw parts.
            let rebuilt =
                PqCodes::from_raw_parts(config, rest.len(), rest.packed_bytes().to_vec()).unwrap();
            for i in 0..rest.len() {
                let mut a = vec![0u16; m];
                rebuilt.read_into(i, &mut a);
                rest.read_into(i, &mut buf);
                assert_eq!(a, buf);
            }
            assert!(PqCodes::from_raw_parts(config, 99, vec![0u8; 3]).is_err());
        }
    }

    #[test]
    fn fused_attend_on_empty_codes_is_neutral() {
        let (cb, _) = small_codebook(23);
        let codes = PqCodes::new(cb.config());
        let query = vec![0.5f32; 32];
        let lut = cb.score_lut(&query);
        let mut acc = ValueAccumulator::for_codebook(&cb);
        let (max, sum) = lut.fused_attend(&codes, &codes, 1.0, None, &mut acc);
        assert_eq!(max, f32::NEG_INFINITY);
        assert_eq!(sum, 0.0);
    }

    #[test]
    fn four_bit_codes_use_quarter_of_unpacked_u16_memory() {
        // The kernel layout stores 4-bit codes packed two-per-byte; the naive
        // representation this PR replaced held one u16 per code — exactly 4x.
        let config = PqConfig::new(8, 4).unwrap();
        let mut codes = PqCodes::new(config);
        for i in 0..256u16 {
            codes.push(&[i % 16; 8]);
        }
        let unpacked_u16_bytes = codes.len() * config.m * std::mem::size_of::<u16>();
        assert_eq!(codes.memory_bytes() * 4, unpacked_u16_bytes);
    }

    #[test]
    fn pq_codes_append_and_memory() {
        let config = PqConfig::new(4, 8).unwrap();
        let mut a = PqCodes::new(config);
        a.push(&[1, 2, 3, 4]);
        let mut b = PqCodes::new(config);
        b.push(&[5, 6, 7, 8]);
        b.push(&[9, 10, 11, 12]);
        a.append(&b);
        assert_eq!(a.len(), 3);
        let mut buf = [0u16; 4];
        a.read_into(2, &mut buf);
        assert_eq!(buf, [9, 10, 11, 12]);
        assert_eq!(a.memory_bytes(), 12); // 3 vectors x 4 codes x 1 byte
    }

    #[test]
    fn memory_footprint_matches_config() {
        let (cb, data) = small_codebook(8);
        let codes = cb.encode_matrix(&data);
        // 8 subspaces x 6 bits = 48 bits = 6 bytes per vector.
        assert_eq!(cb.bytes_per_vector(), 6);
        assert_eq!(codes.memory_bytes(), data.rows() * 6);
        assert_eq!(cb.codebook_bytes(), 8 * 64 * 4 * 4);
        // The decode layouts, 32 subspaces of a 128-wide head: one byte per
        // code at 8 bits, two codes per byte at 4 bits.
        assert_eq!(random_codebook(1, 32, 8, 4).bytes_per_vector(), 32);
        assert_eq!(random_codebook(2, 32, 4, 4).bytes_per_vector(), 16);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let data = training_data(9, 300, 16);
        let config = PqConfig::new(4, 5).unwrap();
        let a = PqCodebook::train(&config, &data, &PqTrainOptions::default(), 42).unwrap();
        let b = PqCodebook::train(&config, &data, &PqTrainOptions::default(), 42).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.planes, b.planes);
    }

    #[test]
    fn from_centroids_validates_shapes() {
        let config = PqConfig::new(2, 2).unwrap();
        let good = vec![Matrix::zeros(4, 3), Matrix::zeros(4, 3)];
        assert!(PqCodebook::from_centroids(config, good).is_ok());
        let wrong_count = vec![Matrix::zeros(4, 3)];
        assert!(PqCodebook::from_centroids(config, wrong_count).is_err());
        let wrong_k = vec![Matrix::zeros(3, 3), Matrix::zeros(4, 3)];
        assert!(PqCodebook::from_centroids(config, wrong_k).is_err());
    }

    #[test]
    fn from_centroids_rejects_empty_and_zero_width_codebooks() {
        // `PqConfig`'s fields are public, so `m: 0` can reach here without
        // passing `PqConfig::new`.
        let no_subspaces = PqConfig { m: 0, nbits: 2 };
        assert!(matches!(
            PqCodebook::from_centroids(no_subspaces, Vec::new()),
            Err(QuantError::ShapeMismatch(_))
        ));
        let config = PqConfig::new(2, 2).unwrap();
        let zero_width = vec![Matrix::zeros(4, 0), Matrix::zeros(4, 0)];
        assert!(matches!(
            PqCodebook::from_centroids(config, zero_width),
            Err(QuantError::ShapeMismatch(_))
        ));
        let data = training_data(0, 8, 4);
        assert!(PqCodebook::train(&no_subspaces, &data, &PqTrainOptions::default(), 0).is_err());
    }

    #[test]
    fn max_samples_caps_the_training_set() {
        // 1.5x the cap: an even subsample must skip every other row (the
        // outliers), not keep all of them.
        let cap = 64;
        let data = Matrix::from_fn(cap * 3 / 2, 4, |r, _| if r % 2 == 0 { 0.5 } else { 1e6 });
        let options = PqTrainOptions {
            max_samples: cap,
            ..PqTrainOptions::default()
        };
        let cb = PqCodebook::train(&PqConfig::new(2, 2).unwrap(), &data, &options, 3).unwrap();
        assert!(cb.rows.iter().all(|&v| v == 0.5), "{:?}", cb.rows);
    }

    /// Random codebook with a few exact zeros among the centroids.
    fn random_codebook(seed: u64, m: usize, nbits: u8, dsub: usize) -> PqCodebook {
        let config = PqConfig::new(m, nbits).unwrap();
        let mut rng = seeded_rng(seed);
        let centroids = (0..m)
            .map(|_| {
                let mut c = normal_matrix(&mut rng, config.codebook_size(), dsub, 0.0, 1.0);
                c.set(1, 0, 0.0);
                c.set(2, dsub - 1, -0.0);
                c
            })
            .collect();
        PqCodebook::from_centroids(config, centroids).unwrap()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The token-at-a-time walk the block kernel replaced: each token is
    /// scored, moves the maximum (rescaling the mass) and is scattered
    /// before the next one is read. Returns how many rescales it made.
    fn token_walk(
        lut: &ScoreLut,
        key_codes: &PqCodes,
        value_codes: &PqCodes,
        scale: f32,
        alibi: Option<FusedAlibi>,
        acc: &mut ValueAccumulator,
        state: &mut FusedState,
    ) -> usize {
        let n = key_codes.len();
        let mut rescales = 0;
        for i in 0..n {
            let t = if alibi.is_some() { n - 1 - i } else { i };
            let mut score = 0.0f32;
            key_codes.walk_row(t, |sub, code| score += lut.table[sub * lut.k + code]);
            score *= scale;
            if let Some(FusedAlibi {
                slope,
                query_pos,
                base_pos,
            }) = alibi
            {
                score += million_tensor::alibi::alibi_bias(slope, query_pos, base_pos + t);
            }
            if score > state.max_score {
                if state.max_score != f32::NEG_INFINITY {
                    let rescale = (state.max_score - score).exp();
                    state.sum_exp *= rescale;
                    acc.rescale(rescale);
                    rescales += 1;
                }
                state.max_score = score;
            }
            let w = (score - state.max_score).exp();
            state.sum_exp += w;
            acc.add_indexed(w, value_codes, t);
        }
        rescales
    }

    /// Feeds `keys`/`values` to `walk` as chunks of `chunk` tokens through
    /// one [`FusedState`] — oldest first, or newest first under ALiBi as the
    /// paged cache does — into a freshly reset `acc`.
    fn feed(
        keys: &PqCodes,
        values: &PqCodes,
        alibi: Option<(f32, usize)>,
        chunk: usize,
        acc: &mut ValueAccumulator,
        mut walk: impl FnMut(
            &PqCodes,
            &PqCodes,
            Option<FusedAlibi>,
            &mut ValueAccumulator,
            &mut FusedState,
        ),
    ) -> FusedState {
        acc.reset();
        let mut state = FusedState::new();
        let n = keys.len();
        let mut starts: Vec<usize> = (0..n.max(1)).step_by(chunk).collect();
        if alibi.is_some() {
            starts.reverse();
        }
        for start in starts {
            let len = chunk.min(n - start);
            let alibi = alibi.map(|(slope, query_pos)| FusedAlibi {
                slope,
                query_pos,
                base_pos: start,
            });
            let (k, v) = (keys.clone_rows(start, len), values.clone_rows(start, len));
            walk(&k, &v, alibi, acc, &mut state);
        }
        state
    }

    /// A table with arbitrary entries, bypassing a codebook.
    fn lut_from(m: usize, k: usize, entry: impl Fn(usize, usize) -> f32) -> ScoreLut {
        ScoreLut {
            m,
            k,
            table: (0..m * k).map(|i| entry(i / k, i % k)).collect(),
        }
    }

    fn codes_from(config: PqConfig, n: usize, code: impl Fn(usize, usize) -> usize) -> PqCodes {
        let mut codes = PqCodes::new(config);
        for t in 0..n {
            let row: Vec<u16> = (0..config.m).map(|s| code(t, s) as u16).collect();
            codes.push(&row);
        }
        codes
    }

    /// A well-mixed value in `0..modulus` for the pair `(a, b)`.
    fn mixed(a: usize, b: usize, modulus: usize) -> usize {
        let h =
            (a.wrapping_mul(2_654_435_761) ^ b.wrapping_mul(40_503)).wrapping_mul(2_246_822_519);
        (h >> 16) % modulus
    }

    #[test]
    fn block_walk_is_bit_identical_to_the_token_walk() {
        let (mut feeds, mut rescales) = (0usize, 0usize);
        for nbits in [4u8, 6, 8, 12] {
            let k = 1usize << nbits;
            // Key and value codebooks of equal and of different m. The rising
            // cases rescale the whole mass on every token, which for 12-bit
            // values takes seconds in a debug build unless their m is 1.
            let pairs: &[(usize, usize)] = if nbits == 12 {
                &[(1, 1), (4, 1), (16, 1)]
            } else {
                &[(1, 1), (4, 4), (16, 16), (4, 16), (16, 1)]
            };
            for &(mk, mv) in pairs {
                let key_config = PqConfig::new(mk, nbits).unwrap();
                let value_cb = random_codebook(90 + nbits as u64 + mv as u64, mv, nbits, 2);
                let random = lut_from(mk, k, |s, c| mixed(s, c, 2001) as f32 / 1000.0 - 1.0);
                let small = lut_from(mk, k, |s, c| mixed(c, s, 2001) as f32 / 1e5 - 0.01);
                // Entry `c · k^(m-1-s)`: a row of base-`k` digits scores as
                // its number, so counting rows score higher every token.
                let digits = lut_from(mk, k, |s, c| {
                    (c as f64 * (k as f64).powi((mk - 1 - s) as i32)) as f32
                });
                let mut query = vec![0.5f32; mk];
                query[0] = f32::NAN;
                let nan = random_codebook(7, mk, nbits, 1).score_lut(&query);
                for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 257, 1000] {
                    let keys = codes_from(key_config, n, |t, s| mixed(t, s + 7, k));
                    let counting = codes_from(key_config, n, |t, s| {
                        k.checked_pow((mk - 1 - s) as u32)
                            .map_or(0, |place| t / place % k)
                    });
                    let values = codes_from(value_cb.config(), n, |t, s| mixed(s + 3, t, k));
                    // A slope below zero makes every newest-first step score
                    // higher than the last: the maximum moves on every token.
                    let cases = [
                        ("random", &random, &keys, 0.37f32, None),
                        ("alibi", &random, &keys, 0.37, Some((0.3f32, n + 3))),
                        ("rising", &digits, &counting, 0.5, None),
                        ("rising alibi", &small, &keys, 1.0, Some((-1.0, n + 3))),
                        ("nan query", &nan, &keys, 0.37, None),
                    ];
                    for (case, lut, keys, scale, alibi) in cases {
                        let ctx = format!("{case}: nbits {nbits}, m {mk}/{mv}, n {n}");
                        let mut want_acc = ValueAccumulator::for_codebook(&value_cb);
                        let want = feed(
                            keys,
                            &values,
                            alibi,
                            usize::MAX,
                            &mut want_acc,
                            |k, v, a, acc, st| {
                                rescales += token_walk(lut, k, v, scale, a, acc, st);
                            },
                        );
                        let mut want_out = vec![0.0f32; value_cb.dim()];
                        want_acc.finish_into(&value_cb, &mut want_out);
                        for chunk in [usize::MAX, 1, 5, 32] {
                            let mut acc = ValueAccumulator::for_codebook(&value_cb);
                            let got =
                                feed(keys, &values, alibi, chunk, &mut acc, |k, v, a, acc, st| {
                                    lut.fused_attend_chunk(k, v, scale, a, acc, st);
                                });
                            let mut out = vec![0.0f32; value_cb.dim()];
                            acc.finish_into(&value_cb, &mut out);
                            assert_eq!(
                                (got.max_score.to_bits(), got.sum_exp.to_bits()),
                                (want.max_score.to_bits(), want.sum_exp.to_bits()),
                                "{ctx}, chunk {chunk}"
                            );
                            assert_eq!(
                                bits(&acc.mass),
                                bits(&want_acc.mass),
                                "{ctx}, chunk {chunk}"
                            );
                            assert_eq!(bits(&out), bits(&want_out), "{ctx}, chunk {chunk}");
                            feeds += 1;
                        }
                    }
                }
            }
        }
        println!(
            "block walk: {feeds} feeds bit-compared with the token walk ({rescales} rescales)"
        );
    }

    #[test]
    #[should_panic(expected = "value codes are 4 x 256 but the accumulator is 4 x 16")]
    fn block_walk_rejects_value_codes_of_another_shape() {
        let keys = codes_from(PqConfig::new(4, 4).unwrap(), 3, |t, s| (t + s) % 16);
        let values = codes_from(PqConfig::new(4, 8).unwrap(), 3, |t, s| 200 + t + s);
        let lut = lut_from(4, 16, |s, c| (s + c) as f32);
        let mut acc = ValueAccumulator::new(4, 16);
        lut.fused_attend_chunk(&keys, &values, 1.0, None, &mut acc, &mut FusedState::new());
    }

    #[test]
    fn fill_from_is_bit_identical_to_per_entry_dot() {
        for dsub in [1usize, 2, 3, 4, 8] {
            let cb = random_codebook(40 + dsub as u64, 5, 5, dsub);
            let mut query: Vec<f32> = (0..cb.dim()).map(|i| (i as f32 * 0.7).sin()).collect();
            query[0] = -0.0;
            query[cb.dim() - 1] = -0.0;
            query[cb.dim() / 2] = 0.0;
            let lut = cb.score_lut(&query);
            for sub in 0..5 {
                let q_sub = &query[sub * dsub..(sub + 1) * dsub];
                for c in 0..32 {
                    let want = dot(q_sub, cb.centroid(sub, c));
                    assert_eq!(
                        lut.get(sub, c as u16).to_bits(),
                        want.to_bits(),
                        "dsub={dsub} sub={sub} c={c}"
                    );
                }
            }
        }
    }

    /// The centroid mix `finish_into` replaced: one skipped-if-zero axpy per
    /// `(subspace, centroid)`.
    fn reference_finish(acc: &ValueAccumulator, cb: &PqCodebook, out: &mut [f32]) {
        out.fill(0.0);
        for (sub, out) in out.chunks_exact_mut(cb.dsub()).enumerate() {
            for c in 0..acc.k {
                let w = acc.mass[sub * acc.k + c];
                if w != 0.0 {
                    axpy(w, cb.centroid(sub, c), out);
                }
            }
        }
    }

    #[test]
    fn finish_into_is_bit_identical_to_the_axpy_loop() {
        // Whole tiles, tiles plus leftover subspaces, fewer subspaces than a
        // tile, an untiled sub-dimension, fewer centroids than a tile, and
        // more centroids than are mixed densely.
        for (m, nbits, dsub) in [
            (16usize, 8u8, 2usize),
            (32, 6, 4),
            (20, 4, 1),
            (16, 5, 8),
            (4, 8, 2),
            (18, 4, 3),
            (16, 3, 2),
            (16, 9, 2),
        ] {
            let cb = random_codebook(50 + m as u64, m, nbits, dsub);
            let k = cb.config().codebook_size() as u64;
            let mut acc = ValueAccumulator::for_codebook(&cb);
            let mut got = vec![1.0f32; cb.dim()];
            let mut want = vec![2.0f32; cb.dim()];
            // All-zero, sparse (256 tokens) and dense (64k tokens) masses.
            for tokens in [0u64, 256, 65_536] {
                acc.reset();
                for t in 0..tokens {
                    let codes: Vec<u16> = (0..m as u64)
                        .map(|s| ((t * 2_654_435_761 + s * 40_503) >> 7) % k)
                        .map(|c| c as u16)
                        .collect();
                    acc.add(1.0 / (1.0 + (t % 97) as f32), &codes);
                }
                acc.finish_into(&cb, &mut got);
                reference_finish(&acc, &cb, &mut want);
                assert_eq!(bits(&got), bits(&want), "m={m} nbits={nbits} dsub={dsub}");
            }
        }
    }

    #[test]
    fn encode_paths_agree_with_the_reference_scan() {
        // Byte-aligned 4-/6-/8-bit rows (written as packed bytes directly)
        // and one layout that goes through the bit cursor.
        for (m, nbits) in [(8usize, 4u8), (8, 6), (4, 8), (5, 7)] {
            let data = training_data(60 + nbits as u64, 300, m * 2);
            let config = PqConfig::new(m, nbits).unwrap();
            let cb = PqCodebook::train(&config, &data, &PqTrainOptions::default(), 9).unwrap();
            let k = config.codebook_size();
            let packed = cb.encode_matrix(&data);
            let mut into = vec![0u16; m];
            let mut read = vec![0u16; m];
            for r in 0..data.rows() {
                let row = data.row(r);
                let want: Vec<u16> = (0..m)
                    .map(|sub| {
                        let centroids = Matrix::from_fn(k, 2, |c, j| cb.centroid(sub, c)[j]);
                        nearest_centroid(&row[sub * 2..sub * 2 + 2], &centroids).0 as u16
                    })
                    .collect();
                cb.encode_into(row, &mut into);
                packed.read_into(r, &mut read);
                assert_eq!(into, want, "m={m} nbits={nbits} row {r}");
                assert_eq!(cb.encode(row), want);
                assert_eq!(read, want);
            }
        }
    }

    #[test]
    fn isa_builds_of_encode_are_bit_identical_to_the_portable_encode() {
        type Encode = fn(&PqCodebook, &[f32], &mut [u16]);
        let mut builds: Vec<(&str, Option<Encode>)> =
            vec![("portable", Some(PqCodebook::encode_subspaces))];
        #[cfg(target_arch = "x86_64")]
        {
            let avx2: Encode = |cb, vector, codes| {
                // SAFETY: listed below only when the CPU supports AVX2.
                unsafe { cb.encode_avx2(vector, codes) }
            };
            builds.push(("avx2", is_x86_feature_detected!("avx2").then_some(avx2)));
        }
        // Sub-dimensions 1, 2, 3 and 4; 8 centroids (the scan's tail alone)
        // up to 256.
        for (m, dsub, nbits) in [(8usize, 1usize, 3u8), (8, 2, 8), (4, 3, 6), (4, 4, 5)] {
            let data = training_data(80 + dsub as u64, 200, m * dsub);
            let config = PqConfig::new(m, nbits).unwrap();
            let cb = PqCodebook::train(&config, &data, &PqTrainOptions::default(), 3).unwrap();
            let (mut want, mut got) = (vec![0u16; m], vec![0u16; m]);
            for r in 0..data.rows() {
                cb.encode_subspaces(data.row(r), &mut want);
                for (name, build) in &builds {
                    if let Some(encode) = build {
                        encode(&cb, data.row(r), &mut got);
                        assert_eq!(got, want, "{name}: m={m} dsub={dsub} row {r}");
                    }
                }
            }
        }
        for (name, build) in &builds {
            match build {
                Some(_) => println!("encode: {name} build bit-compared"),
                None => println!("encode: {name} build skipped, this CPU lacks it"),
            }
        }
    }

    #[test]
    fn train_is_bit_identical_under_the_reference_scan() {
        let data = training_data(70, 500, 8);
        let config = PqConfig::new(4, 6).unwrap();
        let options = PqTrainOptions::default();
        let seed = 17;
        let cb = PqCodebook::train(&config, &data, &options, seed).unwrap();
        for sub in 0..4 {
            let sub_samples = Matrix::from_fn(500, 2, |r, j| data.get(r, sub * 2 + j));
            let mut rng = StdRng::seed_from_u64(seed ^ (sub as u64).wrapping_mul(0x9E37_79B9));
            let want = lloyd(&sub_samples, 64, &options.kmeans, &mut rng, reference_scan).unwrap();
            for c in 0..64 {
                assert_eq!(bits(cb.centroid(sub, c)), bits(want.centroids.row(c)));
            }
        }
    }

    /// The key and value head vectors of every layer that a full-precision
    /// prefill of `tokens` random tokens captures, as the engine's
    /// calibration does.
    fn model_captures(config: million_model::ModelConfig, tokens: usize) -> Vec<Matrix> {
        use million_model::{build_caches, CacheSpec, KvCapture, Transformer};
        use rand::Rng;
        let model = Transformer::new(config.clone(), 42);
        let mut rng = seeded_rng(20_250_011);
        let stream: Vec<u32> = (0..tokens)
            .map(|_| rng.gen_range(0..config.vocab_size as u32))
            .collect();
        let mut caches = build_caches(&config, &CacheSpec::Full);
        let mut capture = KvCapture::new(config.n_layers, config.head_dim(), tokens);
        let _ = model.prefill(&stream, &mut caches, Some(&mut capture));
        (0..config.n_layers)
            .flat_map(|l| [capture.key_head_vectors(l), capture.value_head_vectors(l)])
            .collect()
    }

    /// Trains a codebook on each capture and compares every subspace with
    /// the reference k-means: the codebook's centroids, and the centroids,
    /// assignments, iterations and inertia of the subspace's `kmeans` run.
    /// Returns how many k-means runs it compared.
    fn assert_train_matches_reference(captures: &[Matrix], m: usize, nbits: u8) -> usize {
        let config = PqConfig::new(m, nbits).unwrap();
        let options = PqTrainOptions::default();
        let k = config.codebook_size();
        let mut runs = 0;
        for (i, samples) in captures.iter().enumerate() {
            assert!(samples.rows() <= options.max_samples, "no subsampling");
            let seed = 42 ^ i as u64;
            let cb = PqCodebook::train(&config, samples, &options, seed).unwrap();
            let dsub = cb.dsub();
            for sub in 0..m {
                let sub_samples =
                    Matrix::from_fn(samples.rows(), dsub, |r, j| samples.get(r, sub * dsub + j));
                let sub_seed = seed ^ (sub as u64).wrapping_mul(0x9E37_79B9);
                let want = lloyd(
                    &sub_samples,
                    k,
                    &options.kmeans,
                    &mut StdRng::seed_from_u64(sub_seed),
                    nearest,
                )
                .unwrap();
                let mut rng = StdRng::seed_from_u64(sub_seed);
                let got = kmeans(&sub_samples, k, &options.kmeans, &mut rng).unwrap();
                let context = format!("capture {i} m={m} nbits={nbits} subspace {sub}");
                assert!(fingerprint(&got) == fingerprint(&want), "{context}");
                for c in 0..k {
                    assert_eq!(
                        bits(cb.centroid(sub, c)),
                        bits(want.centroids.row(c)),
                        "{context}"
                    );
                }
                runs += 1;
            }
        }
        runs
    }

    #[test]
    fn kmeans_bit_compared_on_tiny_test_four_bit_captures() {
        let captures = model_captures(million_model::ModelConfig::tiny_for_tests(), 255);
        let runs = assert_train_matches_reference(&captures, 8, 8);
        println!("tiny-test four_bit: {runs} k-means runs (dispatched build) bit-compared with the reference");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "k = 4,096 and 7b-sim prefill are slow unoptimised; CI runs it in release"
    )]
    fn kmeans_bit_compared_on_three_bit_and_llama2_7b_sim_captures() {
        use million_model::ModelConfig;
        let tiny = model_captures(ModelConfig::tiny_for_tests(), 255);
        let runs = assert_train_matches_reference(&tiny, 4, 12);
        println!("tiny-test three_bit: {runs} k-means runs (dispatched build) bit-compared with the reference");
        let llama = model_captures(ModelConfig::llama2_7b_sim(), 512);
        let runs = assert_train_matches_reference(&llama, 16, 8);
        println!("llama2-7b-sim four_bit: {runs} k-means runs (dispatched build) bit-compared with the reference");
        let runs = assert_train_matches_reference(&llama, 8, 12);
        println!("llama2-7b-sim three_bit: {runs} k-means runs (dispatched build) bit-compared with the reference");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn encode_always_produces_valid_codes(seed in 0u64..30) {
            let data = training_data(seed, 128, 16);
            let config = PqConfig::new(4, 4).unwrap();
            let cb = PqCodebook::train(&config, &data, &PqTrainOptions::default(), seed).unwrap();
            let probe = training_data(seed + 1000, 32, 16);
            for r in 0..probe.rows() {
                let codes = cb.encode(probe.row(r));
                prop_assert_eq!(codes.len(), 4);
                prop_assert!(codes.iter().all(|&c| (c as usize) < 16));
            }
        }

        #[test]
        fn packed_codes_roundtrip_unpacked_u16_for_kernel_widths(
            nbits_idx in 0usize..3,
            m_idx in 0usize..5,
            n_rows in 1usize..40,
            split in 0usize..40,
            seed in 0u64..1000,
        ) {
            let nbits = [4u8, 6, 8][nbits_idx];
            // Both byte-aligned rows (the unrolled kernel paths) and odd
            // widths (the bit-cursor fallback).
            let m = [2usize, 4, 8, 5, 7][m_idx];
            // Reference model: the unpacked Vec<u16>-per-row representation
            // the kernel layout replaced. Everything the packed block can
            // answer must agree with it exactly, across push, append (both
            // the byte-aligned memcpy path and the bit-cursor fallback),
            // read_into, code, and walk_row.
            let config = PqConfig::new(m, nbits).unwrap();
            let max = (1u32 << nbits) as u64;
            let rows: Vec<Vec<u16>> = (0..n_rows)
                .map(|r| {
                    (0..m)
                        .map(|s| (((seed * 31 + r as u64 * 17 + s as u64 * 7) * 2654435761) % max) as u16)
                        .collect()
                })
                .collect();
            let split = split.min(n_rows);

            // Build one block by pushes, a second by append of the tail.
            let mut head = PqCodes::new(config);
            for row in &rows[..split] {
                head.push(row);
            }
            let mut tail = PqCodes::new(config);
            for row in &rows[split..] {
                tail.push(row);
            }
            head.append(&tail);
            prop_assert_eq!(head.len(), n_rows);

            let mut buf = vec![0u16; m];
            for (r, expected) in rows.iter().enumerate() {
                head.read_into(r, &mut buf);
                prop_assert_eq!(&buf, expected);
                for (s, &want) in expected.iter().enumerate() {
                    prop_assert_eq!(head.code(r, s), want);
                }
                let mut walked = vec![0u16; m];
                head.walk_row(r, |sub, code| walked[sub] = code as u16);
                prop_assert_eq!(&walked, expected);
            }
            // Packed storage really is nbits-dense.
            prop_assert_eq!(
                head.memory_bytes(),
                (n_rows * m * nbits as usize).div_ceil(8)
            );
        }

        #[test]
        fn decode_of_encode_is_nearest_centroid_fixed_point(seed in 0u64..20) {
            // encode(decode(encode(x))) == encode(x)
            let data = training_data(seed, 200, 16);
            let config = PqConfig::new(4, 4).unwrap();
            let cb = PqCodebook::train(&config, &data, &PqTrainOptions::default(), seed).unwrap();
            for r in 0..20 {
                let codes = cb.encode(data.row(r));
                let decoded = cb.decode(&codes);
                let recoded = cb.encode(&decoded);
                prop_assert_eq!(codes, recoded);
            }
        }
    }
}
