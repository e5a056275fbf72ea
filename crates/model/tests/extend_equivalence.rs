//! Pins the chunk forward behind cached history to its serial twin.
//!
//! A chunk fed at `start_pos > 0` (a later prefill chunk, a warm-prefix
//! suffix, a later conversation turn) must be **bit-identical** — logits and
//! cache contents — to feeding the same tokens one at a time through
//! [`Transformer::decode_step_into`], for every cache backend: the dense
//! stages run as whole-chunk GEMMs whose rows equal the one-token GEMV, and
//! each cache sees the same attend/append calls in the same order. The cold
//! arm (empty caches, tiled attention, bulk append) is pinned against the
//! naive reference within the tiled kernel's tolerance.

use std::sync::Arc;

use million_kvcache::{
    AttendParams, AttendScratch, KiviConfig, KvCache, KvQuantConfig, PqCacheConfig, PqKvCache,
};
use million_model::{
    build_caches, CacheSpec, KvCapture, ModelConfig, NormKind, Positional, PqSpec, PrefillScratch,
    StepScratch, Transformer,
};
use million_quant::pq::{PqCodebook, PqConfig, PqTrainOptions};
use million_tensor::Matrix;

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

/// The serial twin: `chunk` through `decode_step_into`, recording every
/// position's logits and the cache fingerprint after each length in `marks`.
fn serial_twin<C: KvCache>(
    model: &Transformer,
    mut caches: Vec<C>,
    chunk: &[u32],
    marks: &[usize],
) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let mut scratch = StepScratch::new();
    let mut logits = Vec::new();
    let mut prints = Vec::new();
    for (i, &token) in chunk.iter().enumerate() {
        logits.push(bits(model.decode_step_into(
            token,
            &mut caches,
            &mut scratch,
        )));
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
    for (&len, twin_print) in CHUNK_LENGTHS.iter().zip(&twin_prints) {
        let label = format!("{label} chunk {len}");
        let mut caches = make();
        let logits = model.extend_into(&chunk[..len], &mut caches, &mut step);
        assert_rows_match(&logits, &twin_logits[..len], &label);
        assert_eq!(&fingerprint(&caches), twin_print, "{label}: cache contents");

        // The last-position entry point sessions use (same forward, so one
        // row-kernel and one tiled length suffice). On empty caches it takes
        // the tiled arm instead, which is pinned separately.
        let mut caches = make();
        if !caches[0].is_empty() && [7, 130].contains(&len) {
            let mut last = vec![f32::NAN; 3];
            model.prefill_chunk(&chunk[..len], &mut caches, &mut scratch, &mut last);
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
    // Last-position logits of the tiled arm against the naive reference's
    // last row, at lengths on both sides of the GEMM pack threshold and the
    // attention tile sizes.
    for config in configs() {
        let model = Transformer::new(config.clone(), 31);
        let mut scratch = PrefillScratch::new();
        for len in [1, 15, 16, 33, 70, 130] {
            let prompt = tokens(len, config.vocab_size, 13);
            let mut caches = build_caches(&config, &CacheSpec::Full);
            let mut last = Vec::new();
            model.prefill_chunk(&prompt, &mut caches, &mut scratch, &mut last);
            let mut caches_ref = build_caches(&config, &CacheSpec::Full);
            let reference = model.prefill_reference(&prompt, &mut caches_ref, None);
            assert_eq!(caches[0].len(), len);
            for (a, b) in last.iter().zip(reference.row(len - 1)) {
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
