//! Proof of the scratch lifecycle claims at the model layer:
//!
//! 1. the tiled prefill attention kernel performs **zero** heap allocations
//!    once its [`PrefillScratch`] is warm (serial path — the parallel branch
//!    necessarily allocates thread stacks when it spawns workers);
//! 2. the *full* decode step — embedding, norms, q/k/v projections,
//!    attention, cache append, feed-forward and logits — performs zero
//!    allocations through a warm [`StepScratch`], extending the PR 2
//!    attend-only guarantee upward through the whole step (cache growth is
//!    pre-reserved via [`FullPrecisionCache::reserve_tokens`]);
//! 3. the chunk forward — both attention arms: tiled over empty caches, and
//!    token by token behind cached history — performs zero allocations the
//!    second time it sees a shape through a warm [`PrefillScratch`], as does
//!    the GEMM under it ([`Matrix::matmul_into`] through a warm
//!    [`GemmScratch`]).
//!
//! Same counting-allocator technique as `kvcache/tests/zero_alloc.rs`: a
//! per-thread counter (const-initialised TLS, so reading it never allocates)
//! is snapshotted after warmup and must not move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use million_kvcache::KvCache;
use million_kvcache::{CacheLayout, FullPrecisionCache};
use million_model::{
    prefill_attention_tiled, ModelConfig, PrefillScratch, StepScratch, Transformer,
};
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

    // Single-state pool: the serial tile loop, which must be thread- and
    // allocation-free once the buffers have grown.
    let mut scratch = PrefillScratch::with_workers(1);
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

    // Warm-up sizes the staging buffer, per-row accumulators and the output.
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

    let mut scratch = StepScratch::with_workers(1);
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
    let mut scratch = GemmScratch::serial();
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
            cache.reserve_tokens(128);
            cache
        })
        .collect();
    // 40 tokens: past the GEMM's pack threshold and one attention tile.
    let chunk: Vec<u32> = (0..40u32).map(|i| (i * 7 + 3) % 100).collect();
    let mut scratch = PrefillScratch::with_workers(1);
    let mut logits = Vec::new();

    // Tiled arm over empty caches: the first pass sizes every chunk buffer,
    // the pack buffer, the tile arenas and the logits row.
    model.prefill_chunk(&chunk, &mut caches, &mut scratch, &mut logits);
    for cache in &mut caches {
        cache.reset();
    }
    let before = thread_allocations();
    model.prefill_chunk(&chunk, &mut caches, &mut scratch, &mut logits);
    assert_eq!(
        thread_allocations() - before,
        0,
        "second cold chunk forward allocated"
    );

    // Per-token arm behind the 40 cached tokens: one warm-up for the
    // attention pool and the one-row append staging, then the same shape.
    model.prefill_chunk(&chunk, &mut caches, &mut scratch, &mut logits);
    let before = thread_allocations();
    model.prefill_chunk(&chunk, &mut caches, &mut scratch, &mut logits);
    assert_eq!(
        thread_allocations() - before,
        0,
        "second chunk forward behind cached history allocated"
    );
    assert_eq!(caches[0].len(), 120);
    assert_eq!(logits.len(), config.vocab_size);
}
