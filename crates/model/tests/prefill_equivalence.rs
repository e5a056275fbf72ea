//! Pins the tiled prefill kernel against the seed's naive reference path.
//!
//! The online softmax of the tiled kernel reorders floating-point summation,
//! so the two paths agree within tolerance (not bitwise) — but the tiled
//! path itself must be **exactly** deterministic: repeated runs, reused vs
//! fresh scratch, and any worker count must produce bit-identical logits,
//! because each (head, query-tile) work unit's arithmetic depends only on
//! its own index, never on how units are partitioned across threads.

use million_model::{
    build_caches, prefill_attention_reference, prefill_attention_tiled, CacheSpec, ModelConfig,
    NormKind, Positional, PrefillScratch, Transformer, PREFILL_K_TILE, PREFILL_Q_TILE,
};
use million_tensor::init::{normal_matrix, seeded_rng};
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

    let mut caches_tiled = build_caches(config, &CacheSpec::Full);
    let tiled = model.prefill(&prompt, &mut caches_tiled, None);
    let mut caches_ref = build_caches(config, &CacheSpec::Full);
    let reference = model.prefill_reference(&prompt, &mut caches_ref, None);

    assert_close(&tiled, &reference, &format!("{} len={len}", config.name));
    // Both paths hand identical layer-0 KV to the caches; later layers may
    // drift within tolerance but token counts always agree.
    assert_eq!(caches_tiled[0].len(), caches_ref[0].len());
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
fn tiled_kernel_is_bit_identical_across_worker_counts() {
    // Direct kernel call above the parallel work threshold: 512 tokens x
    // head_dim 32 puts every (head, query-tile) unit past the gate, so a
    // multi-state pool actually fans out while the single-state pool runs
    // the serial path — and both must produce the exact same bits. GQA
    // (2 query heads on 1 KV head) plus ALiBi covers the fused-bias path.
    let n = 512;
    let hd = 32;
    let n_heads = 2;
    let n_kv_heads = 1;
    let mut rng = seeded_rng(33);
    let q = normal_matrix(&mut rng, n, n_heads * hd, 0.0, 1.0);
    let k = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
    let v = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
    let scale = 1.0 / (hd as f32).sqrt();
    let slopes = [0.25f32, 0.5];

    let mut outputs = Vec::new();
    for workers in [1usize, 3, 8] {
        let mut scratch = PrefillScratch::with_workers(workers);
        let mut attn = Matrix::default();
        prefill_attention_tiled(
            &q,
            &k,
            &v,
            n_heads,
            n_kv_heads,
            scale,
            Some(&slopes),
            &mut scratch,
            &mut attn,
        );
        assert!(attn.as_slice().iter().all(|x| x.is_finite()));
        outputs.push(attn);
    }
    assert_eq!(
        outputs[0].as_slice(),
        outputs[1].as_slice(),
        "1 vs 3 workers"
    );
    assert_eq!(
        outputs[0].as_slice(),
        outputs[2].as_slice(),
        "1 vs 8 workers"
    );
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
        let mut scratch = PrefillScratch::with_workers(1);
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
        let mut reference = Matrix::default();
        prefill_attention_reference(
            &q,
            &k,
            &v,
            n_heads,
            n_kv_heads,
            scale,
            alibi,
            &mut reference,
        );
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
fn heads_wider_than_the_kernel_limit_fall_back_to_the_reference_path() {
    // head_dim 288 exceeds PREFILL_MAX_HEAD_DIM (256): `prefill` must route
    // to the naive path and produce its bit-exact output.
    let mut config = ModelConfig::tiny_for_tests();
    config.d_model = 288;
    config.n_heads = 1;
    config.n_kv_heads = 1;
    config.d_ff = 64;
    config.positional = Positional::Absolute;
    let model = Transformer::new(config.clone(), 41);
    let prompt = prompt_of(9, config.vocab_size, 41);
    let mut caches_a = build_caches(&config, &CacheSpec::Full);
    let tiled_api = model.prefill(&prompt, &mut caches_a, None);
    let mut caches_b = build_caches(&config, &CacheSpec::Full);
    let reference = model.prefill_reference(&prompt, &mut caches_b, None);
    assert_eq!(tiled_api.as_slice(), reference.as_slice());
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

        let mut caches_tiled = build_caches(&config, &CacheSpec::Full);
        let tiled = model.prefill(&prompt, &mut caches_tiled, None);
        let mut caches_ref = build_caches(&config, &CacheSpec::Full);
        let reference = model.prefill_reference(&prompt, &mut caches_ref, None);

        prop_assert_eq!(tiled.shape(), reference.shape());
        for (a, b) in tiled.as_slice().iter().zip(reference.as_slice()) {
            let denom = a.abs().max(b.abs()).max(1.0);
            prop_assert!((a - b).abs() / denom < 1e-3, "len {} tiled {} vs reference {}", len, a, b);
        }
    }
}
