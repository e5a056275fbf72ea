//! Proof of the scratch lifecycle claims at the model layer:
//!
//! 1. the tiled prefill attention kernel performs **zero** heap allocations
//!    once its [`PrefillScratch`] is warm;
//! 2. the *full* decode step — embedding, norms, q/k/v projections,
//!    attention, cache append, feed-forward and logits — performs zero
//!    allocations through a warm [`StepScratch`], extending the PR 2
//!    attend-only guarantee upward through the whole step (cache growth is
//!    pre-reserved via [`FullPrecisionCache::reserve_tokens`]);
//! 3. the chunk forward — both attention arms: tiled over empty caches, and
//!    token by token behind cached history — performs zero allocations the
//!    second time it sees a shape through a warm [`PrefillScratch`], as does
//!    the GEMM under it ([`Matrix::matmul_into`] through a warm
//!    [`GemmScratch`]) — also for a prompt chunk late enough that every
//!    (head, query-tile) unit walks hundreds of keys, and for a prompt
//!    chunk behind PQ-coded history, decoded into the scratch head by head.
//!
//! Every scratch is built with `new()`, the constructor sessions and
//! admissions use: the forward runs on the calling thread, and a spawned
//! thread would allocate on it.
//!
//! Same counting-allocator technique as `kvcache/tests/zero_alloc.rs`: a
//! per-thread counter (const-initialised TLS, so reading it never allocates)
//! is snapshotted after warmup and must not move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use million_kvcache::KvCache;
use million_kvcache::{CacheLayout, FullPrecisionCache, PqCacheConfig, PqKvCache};
use million_model::{
    prefill_attention_tiled, ChunkArm, ModelConfig, PrefillScratch, StepScratch, Transformer,
};
use million_quant::pq::{PqCodebook, PqConfig, PqTrainOptions};
use million_store::Block;
use million_tensor::init::{normal_matrix, seeded_rng};
use million_tensor::{GemmScratch, Matrix};

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread. `const`-initialised `Cell<usize>`
    /// has no destructor and no lazy init, so bumping it from inside the
    /// allocator cannot itself allocate or recurse.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn thread_allocations() -> usize {
    ALLOCATIONS.with(|c| c.get())
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn tiled_prefill_attention_is_allocation_free_when_scratch_is_warm() {
    let n = 96; // not a multiple of either tile size
    let hd = 32;
    let n_heads = 2;
    let n_kv_heads = 1;
    let mut rng = seeded_rng(4);
    let q = normal_matrix(&mut rng, n, n_heads * hd, 0.0, 1.0);
    let k = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
    let v = normal_matrix(&mut rng, n, n_kv_heads * hd, 0.0, 1.0);
    let scale = 1.0 / (hd as f32).sqrt();
    let slopes = [0.3f32, 0.6];

    let mut scratch = PrefillScratch::new();
    let mut attn = Matrix::default();
    let run = |scratch: &mut PrefillScratch, attn: &mut Matrix| {
        prefill_attention_tiled(
            &q,
            &k,
            &v,
            n_heads,
            n_kv_heads,
            scale,
            Some(&slopes),
            scratch,
            attn,
        );
    };

    // Warm-up sizes the output tile, per-row accumulators and the output.
    run(&mut scratch, &mut attn);

    let before = thread_allocations();
    for _ in 0..25 {
        run(&mut scratch, &mut attn);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state tiled prefill attention allocated {} times over 25 calls",
        after - before
    );
}

#[test]
fn full_decode_step_is_allocation_free_when_scratch_is_warm() {
    let config = ModelConfig::tiny_for_tests();
    let model = Transformer::new(config.clone(), 6);
    let layout = CacheLayout::new(config.n_kv_heads, config.head_dim());

    let mut caches: Vec<FullPrecisionCache> = (0..config.n_layers)
        .map(|_| FullPrecisionCache::new(layout))
        .collect();
    let _ = model.prefill(&[5, 17, 42, 3, 99, 7, 64, 21], &mut caches, None);
    // Pre-reserve the decode horizon so appends never reallocate — the
    // remaining step work is what this test pins to zero.
    for cache in &mut caches {
        cache.reserve_tokens(128);
    }

    let mut scratch = StepScratch::new();
    // Warm-up sizes every step buffer (x, h, q/k/v, attn, proj, inner,
    // append staging, logits) and the attend scratch.
    let _ = model.decode_step_into(9, &mut caches, &mut scratch);
    let _ = model.decode_step_into(11, &mut caches, &mut scratch);

    let before = thread_allocations();
    for step in 0..64u32 {
        let logits = model.decode_step_into(step % 100, &mut caches, &mut scratch);
        assert_eq!(logits.len(), config.vocab_size);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state full decode step allocated {} times over 64 steps",
        after - before
    );
}

#[test]
fn warm_matmul_into_is_allocation_free() {
    let mut rng = seeded_rng(9);
    // Ragged against the 4x8 tile on both axes, several row blocks deep.
    let a = normal_matrix(&mut rng, 150, 48, 0.0, 1.0);
    let b = normal_matrix(&mut rng, 48, 37, 0.0, 1.0);
    let mut scratch = GemmScratch::new();
    let mut out = Matrix::default();
    a.matmul_into(&b, &mut scratch, &mut out);

    let before = thread_allocations();
    for _ in 0..10 {
        a.matmul_into(&b, &mut scratch, &mut out);
    }
    assert_eq!(
        thread_allocations() - before,
        0,
        "warm matmul_into allocated"
    );
}

#[test]
fn chunk_forward_is_allocation_free_when_scratch_is_warm() {
    let config = ModelConfig::tiny_for_tests();
    let model = Transformer::new(config.clone(), 6);
    let layout = CacheLayout::new(config.n_kv_heads, config.head_dim());
    let mut caches: Vec<FullPrecisionCache> = (0..config.n_layers)
        .map(|_| {
            let mut cache = FullPrecisionCache::new(layout);
            cache.reserve_tokens(160);
            cache
        })
        .collect();
    // 40 tokens: past the GEMM's pack threshold and one attention tile.
    let chunk: Vec<u32> = (0..40u32).map(|i| (i * 7 + 3) % 100).collect();
    let mut scratch = PrefillScratch::new();
    let mut logits = Vec::new();

    // Tiled arm over empty caches: the first pass sizes every chunk buffer,
    // the pack buffer, the tile state and the logits row.
    model.prefill_chunk(
        &chunk,
        &mut caches,
        ChunkArm::Prompt,
        &mut scratch,
        &mut logits,
    );
    for cache in &mut caches {
        cache.reset();
    }
    let before = thread_allocations();
    model.prefill_chunk(
        &chunk,
        &mut caches,
        ChunkArm::Prompt,
        &mut scratch,
        &mut logits,
    );
    assert_eq!(
        thread_allocations() - before,
        0,
        "second cold chunk forward allocated"
    );

    // Per-token arm behind the 40 cached tokens: one warm-up for the
    // attention scratch and the one-row append staging, then the same shape.
    model.prefill_chunk(
        &chunk,
        &mut caches,
        ChunkArm::Cached,
        &mut scratch,
        &mut logits,
    );
    let before = thread_allocations();
    model.prefill_chunk(
        &chunk,
        &mut caches,
        ChunkArm::Cached,
        &mut scratch,
        &mut logits,
    );
    assert_eq!(
        thread_allocations() - before,
        0,
        "second chunk forward behind cached history allocated"
    );
    assert_eq!(caches[0].len(), 120);
    assert_eq!(logits.len(), config.vocab_size);

    // A later chunk of a prompt: the tiled arm over the caches' dense
    // history, at a shape the scratch has seen.
    for cache in &mut caches {
        cache.reset();
    }
    model.prefill_chunk(
        &chunk,
        &mut caches,
        ChunkArm::Prompt,
        &mut scratch,
        &mut logits,
    );
    model.prefill_chunk(
        &chunk,
        &mut caches,
        ChunkArm::Prompt,
        &mut scratch,
        &mut logits,
    );
    let before = thread_allocations();
    model.prefill_chunk(
        &chunk,
        &mut caches,
        ChunkArm::Prompt,
        &mut scratch,
        &mut logits,
    );
    assert_eq!(
        thread_allocations() - before,
        0,
        "a later prompt chunk forward allocated"
    );
    assert_eq!(caches[0].len(), 120);
}

#[test]
fn a_long_prompt_chunk_is_allocation_free_when_scratch_is_warm() {
    // A 64-token prompt chunk behind 512 dense prompt tokens: each of its
    // (head, query-tile) units walks 512-576 keys, and each projection is
    // 64K multiply-adds — work big enough that the forward once split it
    // across threads. It runs on this one.
    let config = ModelConfig {
        max_seq_len: 1024,
        ..ModelConfig::tiny_for_tests()
    };
    let model = Transformer::new(config.clone(), 6);
    let layout = CacheLayout::new(config.n_kv_heads, config.head_dim());
    let mut caches: Vec<FullPrecisionCache> = (0..config.n_layers)
        .map(|_| {
            let mut cache = FullPrecisionCache::new(layout);
            cache.reserve_tokens(576);
            cache
        })
        .collect();
    let head: Vec<u32> = (0..512u32).map(|i| (i * 7 + 3) % 100).collect();
    let tail: Vec<u32> = (0..64u32).map(|i| (i * 11 + 5) % 100).collect();
    let mut scratch = PrefillScratch::new();
    let mut logits = Vec::new();
    let mut feed = |caches: &mut Vec<FullPrecisionCache>, scratch: &mut PrefillScratch| {
        for cache in caches.iter_mut() {
            cache.reset();
        }
        model.prefill_chunk(&head, caches, ChunkArm::Prompt, scratch, &mut logits);
        let before = thread_allocations();
        model.prefill_chunk(&tail, caches, ChunkArm::Prompt, scratch, &mut logits);
        thread_allocations() - before
    };

    // The first pass sizes every buffer for both shapes.
    feed(&mut caches, &mut scratch);
    let allocations = feed(&mut caches, &mut scratch);
    assert_eq!(
        allocations, 0,
        "a warm 64-token prompt chunk at position 512 allocated {allocations} times"
    );
    assert_eq!(caches[0].len(), 576);
}

#[test]
fn a_warm_prompt_chunk_behind_pq_codes_is_allocation_free_when_scratch_is_warm() {
    // A 40-token chunk held dense behind 96 PQ-coded tokens — a sealed
    // shared block of 32, a private code tail and an 8-token residual
    // window: every KV head's history is decoded into the tile scratch's
    // buffer, which a warm scratch already holds at this length.
    let config = ModelConfig::tiny_for_tests();
    let model = Transformer::new(config.clone(), 6);
    let hd = config.head_dim();
    let pq = PqConfig::new(hd / 2, 8).unwrap();
    let codebook = |seed| {
        let samples = normal_matrix(&mut seeded_rng(seed), 600, hd, 0.0, 1.0);
        Arc::new(PqCodebook::train(&pq, &samples, &PqTrainOptions::default(), seed).unwrap())
    };
    let (keys, values) = (codebook(1), codebook(2));
    let mut caches: Vec<PqKvCache> = (0..config.n_layers)
        .map(|l| {
            // As a session builds them: appends stay dense until the
            // caller encodes.
            let mut cfg = PqCacheConfig::new(keys.clone(), values.clone(), 8).with_layer(l);
            cfg.auto_encode = false;
            PqKvCache::new(model.cache_layout(), cfg)
        })
        .collect();
    let prefix: Vec<u32> = (0..96u32).map(|i| (i * 7 + 3) % 100).collect();
    let chunk: Vec<u32> = (0..40u32).map(|i| (i * 11 + 5) % 100).collect();
    let mut scratch = PrefillScratch::new();
    let mut logits = Vec::new();
    let mut feed = |caches: &mut Vec<PqKvCache>, scratch: &mut PrefillScratch| {
        for cache in caches.iter_mut() {
            cache.reset();
        }
        let _ = model.prefill(&prefix, caches, None);
        let (mut block_keys, mut block_values) = (Vec::new(), Vec::new());
        for cache in caches.iter_mut() {
            cache.encode_overflow();
            let (k, v) = cache.take_private_front(32);
            block_keys.extend(k);
            block_values.extend(v);
        }
        let block = Arc::new(Block::new(
            config.n_layers,
            config.n_kv_heads,
            block_keys,
            block_values,
        ));
        for cache in caches.iter_mut() {
            cache.attach_shared_block(block.clone());
            cache.reserve_dense(chunk.len());
        }
        let before = thread_allocations();
        model.prefill_chunk(&chunk, caches, ChunkArm::Prompt, scratch, &mut logits);
        thread_allocations() - before
    };

    // The first pass sizes every buffer, the decoded history included.
    feed(&mut caches, &mut scratch);
    let allocations = feed(&mut caches, &mut scratch);
    assert_eq!(
        allocations, 0,
        "a warm 40-token prompt chunk behind PQ codes allocated {allocations} times"
    );
    assert_eq!(caches[0].shared_tokens(), 32);
    assert_eq!(caches[0].private_quantized_len(), 56);
    assert_eq!(caches[0].recent_len(), 48);
}
