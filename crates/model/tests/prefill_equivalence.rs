//! Pins the tiled prefill against two references.
//!
//! * Model level: [`decode_loop`], the same prompt fed one token at a time
//!   through [`Transformer::decode_step_into`] on full-precision caches —
//!   the cached arm, whose attention is `FullPrecisionCache::attend`
//!   merged with the token's own pair.
//! * Kernel level: [`naive_attention`], per head a materialised `n x n`
//!   score matrix, an ALiBi pass, a causal-mask pass and a row softmax,
//!   written here on public `Matrix` and `ops` calls.
//!
//! The online softmax of the tiled kernel reorders floating-point summation,
//! so it agrees with both within tolerance (not bitwise) — but the tiled
//! path itself must be **exactly** deterministic: repeated runs and reused
//! vs fresh scratch must produce bit-identical logits, because a row's
//! arithmetic depends only on its position.

use million_model::{
    build_caches, prefill_attention_tiled, CacheSpec, ModelConfig, NormKind, Positional,
    PrefillScratch, StepScratch, Transformer, PREFILL_K_TILE, PREFILL_Q_TILE,
};
use million_tensor::init::{normal_matrix, seeded_rng};
use million_tensor::ops::{apply_causal_mask, softmax_in_place};
use million_tensor::Matrix;
use proptest::prelude::*;

/// Every preset the equivalence must hold on: RoPE + MHA, RoPE + GQA
/// (group size 2), and ALiBi + LayerNorm (exercising the fused bias).
fn configs() -> Vec<ModelConfig> {
    let mut alibi = ModelConfig::tiny_for_tests();
    alibi.name = "tiny-alibi-test".into();
    alibi.positional = Positional::Alibi;
    alibi.norm = NormKind::LayerNorm;
    vec![
        ModelConfig::tiny_for_tests(),
        ModelConfig::tiny_gqa_for_tests(),
        alibi,
    ]
}

fn prompt_of(len: usize, vocab: usize, seed: u64) -> Vec<u32> {
    (0..len)
        .map(|i| ((i as u64 * 31 + seed * 17 + 3) % vocab as u64) as u32)
        .collect()
}

/// The logits of every position of `prompt`, fed one token at a time to
/// empty full-precision caches.
fn decode_loop(model: &Transformer, prompt: &[u32]) -> Matrix {
    let config = model.config();
    let mut caches = build_caches(config, &CacheSpec::Full);
    let mut scratch = StepScratch::new();
    let mut logits = Vec::with_capacity(prompt.len() * config.vocab_size);
    for &token in prompt {
        logits.extend_from_slice(model.decode_step_into(token, &mut caches, &mut scratch));
    }
    Matrix::from_vec(prompt.len(), config.vocab_size, logits).expect("one row per token")
}

/// Naive causal self-attention over packed `q`/`k`/`v`, one head at a time:
/// `softmax(mask(q·kᵀ·scale − alibi)) · v`.
fn naive_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    n_heads: usize,
    n_kv_heads: usize,
    scale: f32,
    alibi: Option<&[f32]>,
) -> Matrix {
    let n = q.rows();
    let hd = q.cols() / n_heads;
    let group = n_heads / n_kv_heads;
    let mut attn = Matrix::zeros(n, n_heads * hd);
    for qh in 0..n_heads {
        let kvh = qh / group;
        let q_h = Matrix::from_fn(n, hd, |t, c| q.get(t, qh * hd + c));
        let k_h = Matrix::from_fn(n, hd, |t, c| k.get(t, kvh * hd + c));
        let v_h = Matrix::from_fn(n, hd, |t, c| v.get(t, kvh * hd + c));
        let mut scores = q_h.matmul_transposed(&k_h);
        scores.scale(scale);
        if let Some(slopes) = alibi {
            for i in 0..n {
                for (j, s) in scores.row_mut(i).iter_mut().enumerate().take(i + 1) {
                    *s -= slopes[qh] * (i - j) as f32;
                }
            }
        }
        apply_causal_mask(&mut scores);
        for i in 0..n {
            softmax_in_place(scores.row_mut(i));
        }
        let out_h = scores.matmul(&v_h);
        for t in 0..n {
            attn.row_mut(t)[qh * hd..(qh + 1) * hd].copy_from_slice(out_h.row(t));
        }
    }
    attn
}

fn assert_close(tiled: &Matrix, reference: &Matrix, label: &str) {
    assert_eq!(tiled.shape(), reference.shape(), "{label}: shape");
    for (a, b) in tiled.as_slice().iter().zip(reference.as_slice()) {
        let denom = a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() / denom < 1e-3,
            "{label}: tiled {a} vs reference {b}"
        );
    }
}

fn check_equivalence(config: &ModelConfig, len: usize, seed: u64) {
    let model = Transformer::new(config.clone(), seed);
    let prompt = prompt_of(len, config.vocab_size, seed);

    let mut caches = build_caches(config, &CacheSpec::Full);
    let tiled = model.prefill(&prompt, &mut caches, None);
    assert_eq!(caches[0].len(), len);
    assert_close(
        &tiled,
        &decode_loop(&model, &prompt),
        &format!("{} len={len}", config.name),
    );
}

#[test]
fn single_token_prompt_matches_reference() {
    for config in configs() {
        check_equivalence(&config, 1, 5);
    }
}

#[test]
fn tile_boundary_lengths_match_reference() {
    // Exactly one tile, one-off-a-tile on both sides, and a length that is
    // neither a multiple of the query tile nor of the key tile.
    for config in configs() {
        for len in [
            PREFILL_Q_TILE - 1,
            PREFILL_Q_TILE,
            PREFILL_Q_TILE + 1,
            PREFILL_K_TILE + 7,
        ] {
            check_equivalence(&config, len, 6);
        }
    }
}

#[test]
fn tiled_prefill_is_deterministic_across_runs_and_scratch_reuse() {
    for config in configs() {
        let model = Transformer::new(config.clone(), 21);
        let prompt = prompt_of(77, config.vocab_size, 21);

        let mut shared_scratch = PrefillScratch::new();
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut caches = build_caches(&config, &CacheSpec::Full);
            runs.push(model.prefill_with_scratch(&prompt, &mut caches, None, &mut shared_scratch));
        }
        let mut caches = build_caches(&config, &CacheSpec::Full);
        runs.push(model.prefill(&prompt, &mut caches, None));

        assert_eq!(
            runs[0].as_slice(),
            runs[1].as_slice(),
            "{}: reused scratch must be bit-identical across runs",
            config.name
        );
        assert_eq!(
            runs[0].as_slice(),
            runs[2].as_slice(),
            "{}: fresh scratch must be bit-identical to reused scratch",
            config.name
        );
    }
}

#[test]
fn a_nan_query_row_comes_out_nan_from_both_kernels() {
    // Every score of a query row with a NaN in it is NaN. `f32::max` skips
    // NaN, so such a key tile reads a maximum of -inf — the tiled kernel
    // must still not drop it as fully masked and write zeros. The row stays
    // poisoned, as in the reference and the decode path; every other row
    // (and every other head) is untouched by it.
    let (n, hd, n_heads, n_kv_heads) = (70, 8, 2, 1);
    let poisoned = 37;
    let mut rng = seeded_rng(35);
    let mut q = normal_matrix(&mut rng, n, n_heads * hd, 0.0, 1.0);
    let k = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
    let v = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
    q.set(poisoned, 3, f32::NAN);
    let scale = 1.0 / (hd as f32).sqrt();

    for alibi in [None, Some([0.25f32, 0.5].as_slice())] {
        let mut tiled = Matrix::default();
        let mut scratch = PrefillScratch::new();
        prefill_attention_tiled(
            &q,
            &k,
            &v,
            n_heads,
            n_kv_heads,
            scale,
            alibi,
            &mut scratch,
            &mut tiled,
        );
        let reference = naive_attention(&q, &k, &v, n_heads, n_kv_heads, scale, alibi);
        for (label, out) in [("tiled", &tiled), ("reference", &reference)] {
            for t in 0..n {
                let (head0, head1) = out.row(t).split_at(hd);
                if t == poisoned {
                    assert!(
                        head0.iter().all(|x| x.is_nan()),
                        "{label}: row {t} {head0:?}"
                    );
                } else {
                    assert!(head0.iter().all(|x| x.is_finite()), "{label}: row {t}");
                }
                assert!(
                    head1.iter().all(|x| x.is_finite()),
                    "{label}: row {t}, head 1"
                );
            }
        }
    }
}

#[test]
fn heads_wider_than_256_match_the_naive_reference() {
    // The kernel sizes its arena and row states from the head width, so a
    // 288-wide head (GQA, with and without ALiBi, across the tile edges)
    // runs the same tiled path as a narrow one.
    let (hd, n_heads, n_kv_heads) = (288, 2, 1);
    let scale = 1.0 / (hd as f32).sqrt();
    for n in [1, 9, 70, 130] {
        let mut rng = seeded_rng(41 + n as u64);
        let q = normal_matrix(&mut rng, n, n_heads * hd, 0.0, 1.0);
        let k = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
        let v = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
        for alibi in [None, Some([0.25f32, 0.5].as_slice())] {
            let mut tiled = Matrix::default();
            prefill_attention_tiled(
                &q,
                &k,
                &v,
                n_heads,
                n_kv_heads,
                scale,
                alibi,
                &mut PrefillScratch::new(),
                &mut tiled,
            );
            let reference = naive_attention(&q, &k, &v, n_heads, n_kv_heads, scale, alibi);
            assert_close(&tiled, &reference, &format!("hd {hd} n {n}"));
        }
    }

    // And through the model's prefill.
    let mut config = ModelConfig::tiny_for_tests();
    config.d_model = hd;
    config.n_heads = 1;
    config.n_kv_heads = 1;
    config.d_ff = 64;
    config.positional = Positional::Absolute;
    check_equivalence(&config, 9, 41);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiled_matches_reference_for_arbitrary_prompt_lengths(
        len in 1usize..80,
        config_idx in 0usize..3,
        seed in 0u64..50,
    ) {
        let config = configs().swap_remove(config_idx);
        let model = Transformer::new(config.clone(), seed);
        let prompt = prompt_of(len, config.vocab_size, seed);

        let mut caches = build_caches(&config, &CacheSpec::Full);
        let tiled = model.prefill(&prompt, &mut caches, None);
        let reference = decode_loop(&model, &prompt);

        prop_assert_eq!(tiled.shape(), reference.shape());
        for (a, b) in tiled.as_slice().iter().zip(reference.as_slice()) {
            let denom = a.abs().max(b.abs()).max(1.0);
            prop_assert!((a - b).abs() / denom < 1e-3, "len {} tiled {} vs reference {}", len, a, b);
        }
    }
}
