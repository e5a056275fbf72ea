//! Pins both arms of the chunk forward to their twins.
//!
//! **Cached arm.** A chunk fed at `start_pos > 0` through
//! [`ChunkArm::Cached`] (a warm-prefix suffix, a later conversation turn)
//! must be **bit-identical** — logits and cache contents — to feeding the
//! same tokens one at a time, for every cache backend: the dense stages run
//! as whole-chunk GEMMs whose rows equal the one-token GEMV, and each cache
//! sees the same attend/append calls in the same order.
//!
//! **Prompt arm.** A prompt fed in chunks through [`ChunkArm::Prompt`] — the
//! first on empty caches, every later one reading the prompt back from the
//! caches' dense history — must be bit-identical to one
//! [`Transformer::prefill`] of the whole prompt, logits and caches, on full
//! caches and on PQ caches holding their encode until the prompt ends.
//! Behind PQ-coded history (shared blocks, a private code tail, dense
//! residual rows) the arm must equal, by bits and in any chunking, the
//! prompt arm over full-precision caches holding that history decoded to
//! its centroids. The tiled arm itself is pinned against the oracle over
//! empty full-precision caches, within the tiled kernel's tolerance.
//!
//! The serial twin is [`oracle_step`]: one token, one layer at a time,
//! written here on the crates' public API only (weights, `embed_into`, the
//! `ops` GEMV and norms, `Rope`, `alibi_slopes`, `KvCache::{attend,
//! append}`). It shares no code with the model's forward, so the suite still
//! compares two implementations now that [`Transformer::decode_step_into`]
//! *is* the chunk forward at one token — and that entry point is itself
//! pinned to the oracle over the same grid.

use std::sync::Arc;

use million_kvcache::{
    AttendParams, AttendScratch, FullPrecisionCache, KiviConfig, KvCache, KvQuantConfig,
    PqCacheConfig, PqKvCache,
};
use million_model::{
    build_caches, CacheSpec, ChunkArm, KvCapture, ModelConfig, NormKind, Positional, PqSpec,
    PrefillScratch, StepScratch, Transformer,
};
use million_quant::pq::{PqCodebook, PqConfig, PqTrainOptions};
use million_store::Block;
use million_tensor::alibi::alibi_slopes;
use million_tensor::ops::{
    gelu_in_place, layer_norm, rms_norm, silu_in_place, vec_matmul_into, vec_matmul_transposed_into,
};
use million_tensor::{Matrix, Rope};

/// Chunk lengths: below the GEMM's pack threshold (row kernel), ragged
/// against its 4-row tile, and — from [`PREFIX`] — across the PQ residual
/// window, the KIVI group size (32) and the KVQuant re-quantization block.
const CHUNK_LENGTHS: [usize; 5] = [1, 2, 7, 33, 130];
const PREFIX: usize = 40;
const RESIDUAL_LEN: usize = 8;

fn tokens(len: usize, vocab: usize, seed: u64) -> Vec<u32> {
    (0..len)
        .map(|i| ((i as u64 * 37 + seed * 11 + 5) % vocab as u64) as u32)
        .collect()
}

/// {RoPE with position interpolation, ALiBi, learned absolute} x {MHA, GQA}.
fn configs() -> Vec<ModelConfig> {
    let positionals = [
        (
            "rope",
            Positional::Rope {
                theta: 10_000.0,
                position_scale: 4.0,
            },
            NormKind::RmsNorm,
        ),
        ("alibi", Positional::Alibi, NormKind::LayerNorm),
        ("absolute", Positional::Absolute, NormKind::LayerNorm),
    ];
    let mut out = Vec::new();
    for base in [
        ModelConfig::tiny_for_tests(),
        ModelConfig::tiny_gqa_for_tests(),
    ] {
        for (label, positional, norm) in &positionals {
            let mut config = base.clone();
            config.name = format!("{}-{label}", base.name);
            config.positional = *positional;
            config.norm = *norm;
            out.push(config);
        }
    }
    out
}

/// PQ codebooks calibrated on the model's own prefill KV.
fn pq_spec(model: &Transformer, m: usize, calibration: usize) -> PqSpec {
    let config = model.config();
    let mut caches = build_caches(config, &CacheSpec::Full);
    let mut capture = KvCapture::new(config.n_layers, config.head_dim(), calibration);
    let calib = tokens(calibration, config.vocab_size, 3);
    let _ = model.prefill(&calib, &mut caches, Some(&mut capture));
    let pq_config = PqConfig::new(m, 8).unwrap();
    let opts = PqTrainOptions::default();
    let train = |vectors: Matrix, seed| {
        Arc::new(PqCodebook::train(&pq_config, &vectors, &opts, seed).unwrap())
    };
    PqSpec {
        key_codebooks: (0..config.n_layers)
            .map(|l| train(capture.key_head_vectors(l), 1))
            .collect(),
        value_codebooks: (0..config.n_layers)
            .map(|l| train(capture.value_head_vectors(l), 2))
            .collect(),
        residual_len: RESIDUAL_LEN,
        auto_encode: true,
    }
}

/// Every backend `build_caches` offers, KVQuant with and without dense
/// outliers.
fn specs(pq: &PqSpec) -> Vec<(&'static str, CacheSpec)> {
    vec![
        ("full", CacheSpec::Full),
        ("pq", CacheSpec::Pq(pq.clone())),
        ("kivi", CacheSpec::Kivi(KiviConfig::default())),
        ("kvquant", CacheSpec::KvQuant(KvQuantConfig::default())),
        (
            "kvquant-outliers",
            CacheSpec::KvQuant(KvQuantConfig {
                outlier_fraction: 0.01,
                ..KvQuantConfig::default()
            }),
        ),
    ]
}

/// Caches of `spec` holding `prefix` tokens (none for an empty prefix).
fn caches_after(model: &Transformer, spec: &CacheSpec, prefix: &[u32]) -> Vec<Box<dyn KvCache>> {
    let mut caches = build_caches(model.config(), spec);
    if !prefix.is_empty() {
        let _ = model.prefill(prefix, &mut caches, None);
    }
    caches
}

/// PQ caches as sessions configure them under `async_quant`: appends never
/// encode, the prompt is encoded once after its prefill, and a later chunk
/// stays dense behind the codes until the quantization stream takes it.
fn deferred_pq_caches_after(model: &Transformer, spec: &PqSpec, prefix: &[u32]) -> Vec<PqKvCache> {
    let mut caches: Vec<PqKvCache> = (0..model.config().n_layers)
        .map(|l| {
            let mut cfg = PqCacheConfig::new(
                spec.key_codebooks[l].clone(),
                spec.value_codebooks[l].clone(),
                spec.residual_len,
            )
            .with_layer(l);
            cfg.auto_encode = false;
            PqKvCache::new(model.cache_layout(), cfg)
        })
        .collect();
    if !prefix.is_empty() {
        let _ = model.prefill(prefix, &mut caches, None);
        for cache in &mut caches {
            cache.encode_overflow();
        }
    }
    caches
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Everything observable about a cache set: length, bytes, and the exact
/// bits a fixed probe query attends out of every layer and head.
fn fingerprint<C: KvCache>(caches: &[C]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut scratch = AttendScratch::new();
    for cache in caches {
        let layout = cache.layout();
        out.push(cache.len() as u32);
        out.push(cache.memory_bytes() as u32);
        let query: Vec<f32> = (0..layout.head_dim)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let mut attended = vec![0.0f32; layout.head_dim];
        if cache.is_empty() {
            continue;
        }
        for head in 0..layout.n_kv_heads {
            let params = AttendParams::new(head, &query, 0.25, cache.len());
            cache.attend(&params, &mut scratch, &mut attended);
            out.extend(bits(&attended));
        }
    }
    out
}

/// `x · w` as a fresh vector (the one-token GEMV).
fn gemv(x: &[f32], w: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; w.cols()];
    vec_matmul_into(x, w, &mut out);
    out
}

fn add_assign(x: &mut [f32], delta: &[f32]) {
    for (a, b) in x.iter_mut().zip(delta) {
        *a += b;
    }
}

/// The independent oracle: one token through the layer stack on public API
/// only — per layer norm → GEMV → RoPE → per-head `attend` over the cached
/// history merged with the token's own pair (Eq. 7) → `wo` → append → FFN —
/// returning the logits of the fed position.
fn oracle_step<C: KvCache>(model: &Transformer, token: u32, caches: &mut [C]) -> Vec<f32> {
    let config = model.config();
    let weights = model.weights();
    let hd = config.head_dim();
    let group = config.n_heads / config.n_kv_heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let rope = match config.positional {
        Positional::Rope {
            theta,
            position_scale,
        } => Some(Rope::new(hd, theta, position_scale)),
        _ => None,
    };
    let slopes =
        matches!(config.positional, Positional::Alibi).then(|| alibi_slopes(config.n_heads));
    let norm = |x: &mut [f32], weight: &[f32], bias: &[f32]| match config.norm {
        NormKind::RmsNorm => rms_norm(x, weight, 1e-6),
        NormKind::LayerNorm => layer_norm(x, weight, bias, 1e-6),
    };

    let pos = caches[0].len();
    let mut embedded = Matrix::default();
    model.embed_into(&[token], pos, &mut embedded);
    let mut x = embedded.row(0).to_vec();
    let mut scratch = AttendScratch::new();
    for (layer, cache) in weights.layers.iter().zip(caches.iter_mut()) {
        let mut h = x.clone();
        norm(&mut h, &layer.attn_norm_weight, &layer.attn_norm_bias);
        let mut q = gemv(&h, &layer.wq);
        let mut k = gemv(&h, &layer.wk);
        let v = gemv(&h, &layer.wv);
        if let Some(rope) = &rope {
            for head in q.chunks_mut(hd).chain(k.chunks_mut(hd)) {
                rope.apply(head, pos);
            }
        }
        let mut attn = vec![0.0f32; config.n_heads * hd];
        for (qh, out) in attn.chunks_mut(hd).enumerate() {
            let kv = (qh / group) * hd..(qh / group + 1) * hd;
            let mut params = AttendParams::new(qh / group, &q[qh * hd..(qh + 1) * hd], scale, pos)
                .with_current(&k[kv.clone()], &v[kv]);
            if let Some(slopes) = &slopes {
                params = params.with_alibi(slopes[qh]);
            }
            cache.attend(&params, &mut scratch, out);
        }
        add_assign(&mut x, &gemv(&attn, &layer.wo));
        cache.append(&Matrix::from_row(&k), &Matrix::from_row(&v));

        let mut h = x.clone();
        norm(&mut h, &layer.ffn_norm_weight, &layer.ffn_norm_bias);
        let mut inner = gemv(&h, &layer.w_in);
        match config.norm {
            NormKind::RmsNorm => silu_in_place(&mut inner),
            NormKind::LayerNorm => gelu_in_place(&mut inner),
        }
        add_assign(&mut x, &gemv(&inner, &layer.w_out));
    }
    norm(&mut x, &weights.final_norm_weight, &weights.final_norm_bias);
    let mut logits = vec![0.0f32; config.vocab_size];
    vec_matmul_transposed_into(&x, &weights.embedding, &mut logits);
    logits
}

/// The serial twin: `chunk` through [`oracle_step`], recording every
/// position's logits and the cache fingerprint after each length in `marks`.
fn serial_twin<C: KvCache>(
    model: &Transformer,
    mut caches: Vec<C>,
    chunk: &[u32],
    marks: &[usize],
) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let mut logits = Vec::new();
    let mut prints = Vec::new();
    for (i, &token) in chunk.iter().enumerate() {
        logits.push(bits(&oracle_step(model, token, &mut caches)));
        if marks.contains(&(i + 1)) {
            prints.push(fingerprint(&caches));
        }
    }
    (logits, prints)
}

fn assert_rows_match(chunked: &Matrix, twin: &[Vec<u32>], label: &str) {
    assert_eq!(chunked.rows(), twin.len(), "{label}: rows");
    for (r, expected) in twin.iter().enumerate() {
        assert_eq!(&bits(chunked.row(r)), expected, "{label}: position {r}");
    }
}

/// Every chunk length (and one chained split) fed behind the caches `make`
/// builds, against the serial twin over the same caches.
fn check_backend<C: KvCache>(
    model: &Transformer,
    make: &dyn Fn() -> Vec<C>,
    chunk: &[u32],
    label: &str,
) {
    let (twin_logits, twin_prints) = serial_twin(model, make(), chunk, &CHUNK_LENGTHS);
    let mut step = StepScratch::new();
    let mut scratch = PrefillScratch::new();

    // The one-token entry point against the oracle, position by position.
    let mut caches = make();
    let mut prints = twin_prints.iter();
    for (i, (&token, expected)) in chunk.iter().zip(&twin_logits).enumerate() {
        let logits = model.decode_step_into(token, &mut caches, &mut step);
        assert_eq!(&bits(logits), expected, "{label} decode step {i}");
        if CHUNK_LENGTHS.contains(&(i + 1)) {
            let print = prints.next().unwrap();
            assert_eq!(
                &fingerprint(&caches),
                print,
                "{label} decode step {i}: cache"
            );
        }
    }
    for (&len, twin_print) in CHUNK_LENGTHS.iter().zip(&twin_prints) {
        let label = format!("{label} chunk {len}");
        let mut caches = make();
        let logits = model.extend_into(&chunk[..len], &mut caches, &mut step);
        assert_rows_match(&logits, &twin_logits[..len], &label);
        assert_eq!(&fingerprint(&caches), twin_print, "{label}: cache contents");

        // The last-position entry point sessions use (same forward, so one
        // row-kernel and one tiled length suffice).
        let mut caches = make();
        if [7, 130].contains(&len) {
            let mut last = vec![f32::NAN; 3];
            model.prefill_chunk(
                &chunk[..len],
                &mut caches,
                ChunkArm::Cached,
                &mut scratch,
                &mut last,
            );
            assert_eq!(bits(&last), twin_logits[len - 1], "{label}: last logits");
            assert_eq!(&fingerprint(&caches), twin_print, "{label}: cache (last)");
        }
    }

    // Chunk after chunk on one cache set: boundaries are invisible.
    let mut caches = make();
    let mut fed = 0;
    for len in [33, 7, 2, 1, 87] {
        let logits = model.extend_into(&chunk[fed..fed + len], &mut caches, &mut step);
        assert_rows_match(&logits, &twin_logits[fed..fed + len], label);
        fed += len;
    }
    assert_eq!(
        &fingerprint(&caches),
        twin_prints.last().unwrap(),
        "{label} chained: cache contents"
    );
}

fn check_chunks_match_serial_twin(prefix_len: usize) {
    for config in configs() {
        let model = Transformer::new(config.clone(), 29);
        let stream = tokens(
            prefix_len + CHUNK_LENGTHS[4],
            config.vocab_size,
            prefix_len as u64,
        );
        let (prefix, chunk) = stream.split_at(prefix_len);
        let pq = pq_spec(&model, 4, 64);
        for (backend, spec) in specs(&pq) {
            let label = format!("{} {backend} prefix {prefix_len}", config.name);
            check_backend(
                &model,
                &|| caches_after(&model, &spec, prefix),
                chunk,
                &label,
            );
        }
        let label = format!("{} pq-deferred prefix {prefix_len}", config.name);
        let make = || deferred_pq_caches_after(&model, &pq, prefix);
        check_backend(&model, &make, chunk, &label);
    }
}

#[test]
fn chunks_behind_cached_history_match_the_decode_loop_bit_for_bit() {
    check_chunks_match_serial_twin(PREFIX);
}

#[test]
fn chunks_on_empty_caches_through_the_cached_arm_match_the_decode_loop() {
    check_chunks_match_serial_twin(0);
}

#[test]
fn cold_chunk_forward_matches_the_reference_within_tolerance() {
    // Last-position logits of the tiled arm against the oracle's last step
    // over empty full-precision caches, at lengths on both sides of the GEMM
    // pack threshold and the attention tile sizes.
    for config in configs() {
        let model = Transformer::new(config.clone(), 31);
        let mut scratch = PrefillScratch::new();
        for len in [1, 15, 16, 33, 70, 130] {
            let prompt = tokens(len, config.vocab_size, 13);
            let mut caches = build_caches(&config, &CacheSpec::Full);
            let mut last = Vec::new();
            model.prefill_chunk(
                &prompt,
                &mut caches,
                ChunkArm::Prompt,
                &mut scratch,
                &mut last,
            );
            let mut caches_ref = build_caches(&config, &CacheSpec::Full);
            let mut reference = Vec::new();
            for &token in &prompt {
                reference = oracle_step(&model, token, &mut caches_ref);
            }
            assert_eq!(caches[0].len(), len);
            for (a, b) in last.iter().zip(&reference) {
                let denom = a.abs().max(b.abs()).max(1.0);
                assert!(
                    (a - b).abs() / denom < 1e-3,
                    "{} len {len}: tiled {a} vs reference {b}",
                    config.name
                );
            }
            // And exactly the all-position entry point's last row.
            let mut caches_all = build_caches(&config, &CacheSpec::Full);
            let all = model.prefill(&prompt, &mut caches_all, None);
            assert_eq!(
                bits(&last),
                bits(all.row(len - 1)),
                "{} len {len}",
                config.name
            );
        }
    }
}

#[test]
fn a_single_token_on_empty_caches_is_the_same_through_either_arm() {
    // The one seam between the arms: on empty caches the prompt arm runs the
    // tiled kernel and a bulk append, while `decode_step_into` takes the
    // cached arm (per-head `attend` over an
    // empty history, one-row append). A lone token attends to nothing but
    // itself — softmax weight exactly 1 — so the two must agree to the bit,
    // logits and cache contents, for every positional scheme and backend.
    for config in configs() {
        let model = Transformer::new(config.clone(), 37);
        let pq = pq_spec(&model, 4, 64);
        for (backend, spec) in specs(&pq) {
            for token in [0, 41, config.vocab_size as u32 - 1] {
                let label = format!("{} {backend} token {token}", config.name);
                let mut prompt_arm = build_caches(&config, &spec);
                let mut last = Vec::new();
                model.prefill_chunk(
                    &[token],
                    &mut prompt_arm,
                    ChunkArm::Prompt,
                    &mut PrefillScratch::new(),
                    &mut last,
                );
                let mut cached_arm = build_caches(&config, &spec);
                let step = model.decode_step(token, &mut cached_arm);
                assert_eq!(bits(&last), bits(&step), "{label}: logits");
                assert_eq!(
                    fingerprint(&prompt_arm),
                    fingerprint(&cached_arm),
                    "{label}: cache contents"
                );
            }
        }
    }
}

/// PQ caches holding their encode for a prompt admitted in chunks, as a
/// session does; `auto_encode` on and off.
fn held_pq_caches(model: &Transformer, spec: &PqSpec, auto_encode: bool) -> Vec<PqKvCache> {
    (0..model.config().n_layers)
        .map(|l| {
            let mut cfg = PqCacheConfig::new(
                spec.key_codebooks[l].clone(),
                spec.value_codebooks[l].clone(),
                spec.residual_len,
            )
            .with_layer(l);
            cfg.auto_encode = auto_encode;
            let mut cache = PqKvCache::new(model.cache_layout(), cfg);
            cache.hold_encode(true);
            cache
        })
        .collect()
}

/// Every layer's codes and dense rows, as bits.
fn pq_contents(caches: &[PqKvCache]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for cache in caches {
        for codes in cache
            .private_key_codes()
            .iter()
            .chain(cache.private_value_codes())
        {
            out.push(codes.packed_bytes().to_vec());
        }
        for rows in cache
            .recent_key_rows()
            .iter()
            .chain(cache.recent_value_rows())
        {
            out.push(rows.iter().flat_map(|x| x.to_le_bytes()).collect());
        }
    }
    out
}

#[test]
fn a_prompt_fed_in_chunks_through_the_prompt_arm_is_one_prefill() {
    // Chunk sizes around the GEMM's row-kernel threshold and the attention
    // tiles (32 query rows, 64 keys), on full caches and on PQ caches whose
    // encode is held until the prompt ends (the session's cold admission),
    // with and without `auto_encode`.
    const LEN: usize = 150;
    for config in configs() {
        let model = Transformer::new(config.clone(), 43);
        let prompt = tokens(LEN, config.vocab_size, 17);
        let pq = pq_spec(&model, 4, 64);
        let mut scratch = PrefillScratch::new();

        let mut one_shot = build_caches(&config, &CacheSpec::Full);
        let all = model.prefill(&prompt, &mut one_shot, None);
        let expected = bits(all.row(LEN - 1));
        let mut pq_one_shot = held_pq_caches(&model, &pq, true);
        let mut one_shot_last = Vec::new();
        model.prefill_chunk(
            &prompt,
            &mut pq_one_shot,
            ChunkArm::Prompt,
            &mut scratch,
            &mut one_shot_last,
        );
        assert_eq!(bits(&one_shot_last), expected, "{}", config.name);
        for cache in &mut pq_one_shot {
            cache.hold_encode(false);
            cache.encode_overflow();
        }

        for size in [1, 7, 15, 16, 31, 32, 33, 64, 65, 149] {
            let label = format!("{} chunks of {size}", config.name);
            let mut full = build_caches(&config, &CacheSpec::Full);
            let mut held = [
                held_pq_caches(&model, &pq, true),
                held_pq_caches(&model, &pq, false),
            ];
            let mut last = Vec::new();
            for chunk in prompt.chunks(size) {
                model.prefill_chunk(chunk, &mut full, ChunkArm::Prompt, &mut scratch, &mut last);
                for caches in &mut held {
                    let mut pq_last = Vec::new();
                    model.prefill_chunk(
                        chunk,
                        caches,
                        ChunkArm::Prompt,
                        &mut scratch,
                        &mut pq_last,
                    );
                    assert_eq!(bits(&pq_last), bits(&last), "{label}: PQ logits");
                }
            }
            assert_eq!(bits(&last), expected, "{label}: last logits");
            assert_eq!(fingerprint(&full), fingerprint(&one_shot), "{label}: full");
            for caches in &mut held {
                for cache in caches.iter_mut() {
                    cache.hold_encode(false);
                    cache.encode_overflow();
                }
                assert_eq!(
                    pq_contents(caches),
                    pq_contents(&pq_one_shot),
                    "{label}: codes"
                );
            }
        }
    }
}

/// A full-precision cache holding what a PQ cache's history decodes to,
/// decoded here through the codebooks' public one-vector `decode`: the
/// shared blocks' codes, then the private tail's, then the dense rows.
fn decoded_full_cache(cache: &PqKvCache, spec: &PqSpec, layer: usize) -> FullPrecisionCache {
    let layout = cache.layout();
    let d = layout.head_dim;
    let mut keys = Matrix::zeros(cache.len(), layout.width());
    let mut values = Matrix::zeros(cache.len(), layout.width());
    for h in 0..layout.n_kv_heads {
        let shared = cache.shared_blocks();
        let sides = [
            (
                &spec.key_codebooks[layer],
                shared
                    .iter()
                    .map(|b| b.key_codes(layer, h))
                    .collect::<Vec<_>>(),
                &cache.private_key_codes()[h],
                &cache.recent_key_rows()[h],
                &mut keys,
            ),
            (
                &spec.value_codebooks[layer],
                shared.iter().map(|b| b.value_codes(layer, h)).collect(),
                &cache.private_value_codes()[h],
                &cache.recent_value_rows()[h],
                &mut values,
            ),
        ];
        for (codebook, blocks, private, dense, out) in sides {
            let mut code_row = vec![0u16; codebook.config().m];
            let mut t = 0;
            for codes in blocks.into_iter().chain([private]) {
                for i in 0..codes.len() {
                    codes.read_into(i, &mut code_row);
                    out.row_mut(t)[h * d..(h + 1) * d].copy_from_slice(&codebook.decode(&code_row));
                    t += 1;
                }
            }
            for row in dense.chunks_exact(d) {
                out.row_mut(t)[h * d..(h + 1) * d].copy_from_slice(row);
                t += 1;
            }
            assert_eq!(t, cache.len());
        }
    }
    let mut full = FullPrecisionCache::new(layout);
    full.append(&keys, &values);
    full
}

/// Every head's history as bits.
fn history_bits<C: KvCache>(caches: &[C]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for cache in caches {
        for h in 0..cache.layout().n_kv_heads {
            let [k, v] = cache.dense_history(h, &mut buf).expect("readable");
            for rows in [k, v] {
                out.push((0..rows.rows()).flat_map(|t| bits(rows.row(t))).collect());
            }
        }
    }
    out
}

#[test]
fn the_prompt_arm_behind_coded_history_is_the_prompt_arm_over_its_decoded_rows() {
    // PQ history of every kind — a sealed shared block, a private code
    // tail, the residual window's dense rows — then a 40-token suffix held
    // dense through the prompt arm, one-shot and in chunks, against the
    // prompt arm over full-precision caches that hold the decoded rows.
    const PREFIX_LEN: usize = 70;
    const BLOCK: usize = 32;
    const SUFFIX: usize = 40;
    for config in configs() {
        let model = Transformer::new(config.clone(), 53);
        let stream = tokens(PREFIX_LEN + SUFFIX, config.vocab_size, 23);
        let (prefix, suffix) = stream.split_at(PREFIX_LEN);
        for residual_len in [0, RESIDUAL_LEN] {
            let spec = PqSpec {
                residual_len,
                ..pq_spec(&model, 4, 64)
            };
            let coded = || {
                let mut caches = held_pq_caches(&model, &spec, true);
                for cache in &mut caches {
                    cache.hold_encode(false);
                }
                let _ = model.prefill(prefix, &mut caches, None);
                let heads = config.n_kv_heads;
                let (mut keys, mut values) = (Vec::new(), Vec::new());
                for cache in &mut caches {
                    let (k, v) = cache.take_private_front(BLOCK);
                    keys.extend(k);
                    values.extend(v);
                }
                let block = Arc::new(Block::new(config.n_layers, heads, keys, values));
                for cache in &mut caches {
                    cache.attach_shared_block(block.clone());
                    cache.hold_encode(true);
                }
                caches
            };
            let label = format!("{} residual {residual_len}", config.name);
            let template = coded();
            assert_eq!(template[0].shared_tokens(), BLOCK, "{label}");
            assert_eq!(
                template[0].private_quantized_len(),
                PREFIX_LEN - BLOCK - residual_len,
                "{label}"
            );
            let mut full: Vec<FullPrecisionCache> = template
                .iter()
                .enumerate()
                .map(|(layer, cache)| decoded_full_cache(cache, &spec, layer))
                .collect();
            let mut scratch = PrefillScratch::new();
            let mut expected = Vec::new();
            model.prefill_chunk(
                suffix,
                &mut full,
                ChunkArm::Prompt,
                &mut scratch,
                &mut expected,
            );

            for size in [SUFFIX, 7, 1] {
                let mut caches = coded();
                let mut last = Vec::new();
                for chunk in suffix.chunks(size) {
                    model.prefill_chunk(
                        chunk,
                        &mut caches,
                        ChunkArm::Prompt,
                        &mut scratch,
                        &mut last,
                    );
                }
                let label = format!("{label}, chunks of {size}");
                assert_eq!(bits(&last), bits(&expected), "{label}: last logits");
                assert_eq!(caches[0].recent_len(), residual_len + SUFFIX, "{label}");
                assert_eq!(
                    history_bits(&caches),
                    history_bits(&full),
                    "{label}: history"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "a kivi cache does not")]
fn the_prompt_arm_behind_a_baseline_cache_panics() {
    let config = ModelConfig::tiny_for_tests();
    let model = Transformer::new(config.clone(), 47);
    let mut caches = build_caches(&config, &CacheSpec::Kivi(KiviConfig::default()));
    let prompt = tokens(20, config.vocab_size, 5);
    let mut last = Vec::new();
    let mut scratch = PrefillScratch::new();
    for chunk in prompt.chunks(10) {
        model.prefill_chunk(
            chunk,
            &mut caches,
            ChunkArm::Prompt,
            &mut scratch,
            &mut last,
        );
    }
}

/// Release-only (`cargo test --release -- --ignored`): a 512-token chunk
/// behind a 1024-token PQ-coded prefix on `llama-2-7b-sim` — the serving
/// shape (d_model 256, d_ff 1024, 4-bit PQ), far too slow for a debug run.
#[test]
#[ignore = "release-only: 1.5k tokens through llama-2-7b-sim twice"]
fn long_pq_prefix_chunk_matches_the_decode_loop_bit_for_bit() {
    let config = ModelConfig::llama2_7b_sim();
    let model = Transformer::new(config.clone(), 7);
    let spec = pq_spec(&model, config.head_dim() / 2, 256);
    let stream = tokens(1024 + 512, config.vocab_size, 17);
    let (prefix, chunk) = stream.split_at(1024);
    let make = || deferred_pq_caches_after(&model, &spec, prefix);

    let (twin_logits, twin_prints) = serial_twin(&model, make(), chunk, &[512]);
    let mut caches = make();
    assert!(caches[0].quantized_len() >= 1024 - RESIDUAL_LEN);
    let logits = model.extend_into(chunk, &mut caches, &mut StepScratch::new());
    assert_rows_match(&logits, &twin_logits, "llama-2-7b-sim 1024+512");
    assert_eq!(fingerprint(&caches), twin_prints[0], "cache contents");
}
