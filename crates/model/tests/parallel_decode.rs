//! Exercises the head-parallel decode branch through the real model path.
//!
//! The per-head fan-out only engages past `pos · head_dim ≥ 2^18`, far
//! beyond what the tiny unit-test prompts reach, so this test fills the
//! caches directly with 8192 tokens of random KV (no O(n²) prefill) and
//! compares a multi-worker decode against the forced-serial reference
//! (`StepScratch::with_workers(1)`). Heads never share accumulators, so
//! the two partitionings must agree **bit for bit**.
//!
//! This file is its own test binary with a single test: the
//! `RAYON_NUM_THREADS` override must be set before anything in the process
//! touches the rayon shim (the value is cached on first use), which a
//! shared test binary could not guarantee.

use million_model::{build_caches, CacheSpec, ModelConfig, StepScratch, Transformer};
use million_tensor::init::{normal_matrix, seeded_rng};

#[test]
fn parallel_head_decode_is_bit_identical_to_serial() {
    // Force multi-worker mode even on single-core CI machines; this is the
    // first rayon-shim touch in this process, so the override sticks.
    std::env::set_var("RAYON_NUM_THREADS", "4");

    let config = ModelConfig::tiny_gqa_for_tests();
    let model = Transformer::new(config.clone(), 11);
    let hd = config.head_dim();
    // Past the parallel gate: pos * head_dim >= 2^18.
    let tokens = (1usize << 18).div_ceil(hd);

    let mut caches_par = build_caches(&config, &CacheSpec::Full);
    let mut caches_ser = build_caches(&config, &CacheSpec::Full);
    let mut rng = seeded_rng(12);
    let mut filled = 0usize;
    while filled < tokens {
        let block = 1024.min(tokens - filled);
        let k = normal_matrix(&mut rng, block, config.kv_width(), 0.0, 0.5);
        let v = normal_matrix(&mut rng, block, config.kv_width(), 0.0, 0.5);
        for cache in caches_par.iter_mut().chain(caches_ser.iter_mut()) {
            cache.append(&k, &v);
        }
        filled += block;
    }

    let mut parallel = StepScratch::new();
    assert!(
        parallel.workers() >= 4,
        "RAYON_NUM_THREADS override did not take (workers = {}); \
         another rayon call must have run first",
        parallel.workers()
    );
    let mut serial = StepScratch::with_workers(1);

    for step in 0..2u32 {
        let with_parallel = model.decode_step_into(step + 7, &mut caches_par, &mut parallel);
        let with_serial = model.decode_step_into(step + 7, &mut caches_ser, &mut serial);
        assert_eq!(
            with_parallel, with_serial,
            "step {step}: head-partitioned decode diverged from serial"
        );
    }
}
