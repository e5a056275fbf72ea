//! Proof of the PR's central claim: once an [`AttendScratch`] is warm,
//! decode-time attention performs **zero heap allocations** on every
//! backend's hot path.
//!
//! A counting global allocator wraps the system allocator; each case warms
//! the scratch with one call per head, snapshots the counter, runs many
//! interleaved attends, and asserts the counter never moved. The counter is
//! per-thread (const-initialised TLS, so reading it never allocates): the
//! libtest harness runs tests and its own bookkeeping on other threads
//! whose allocations must not pollute a measurement window.
//!
//! The encode side gets the same treatment: a row through
//! `PqCodebook::encode_into` into reserved packed storage allocates nothing,
//! and `PqKvCache::encode_tokens` allocates per call, never per row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use million_kvcache::{
    AttendParams, AttendScratch, CacheLayout, FullPrecisionCache, KiviCache, KiviConfig, KvCache,
    KvQuantCache, KvQuantConfig, PqCacheConfig, PqKvCache,
};
use million_quant::pq::{PqCodebook, PqCodes, PqConfig, PqTrainOptions};
use million_store::Block;
use million_tensor::init::{normal_matrix, seeded_rng};

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

const HEAD_DIM: usize = 32;
const HEADS: usize = 2;
const TOKENS: usize = 96;

fn layout() -> CacheLayout {
    CacheLayout::new(HEADS, HEAD_DIM)
}

fn assert_attend_is_allocation_free(cache: &dyn KvCache, label: &str) {
    let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.23).sin()).collect();
    let current_k: Vec<f32> = (0..HEAD_DIM).map(|i| 0.02 * i as f32).collect();
    let current_v: Vec<f32> = (0..HEAD_DIM).map(|i| 1.0 - 0.01 * i as f32).collect();
    let scale = 1.0 / (HEAD_DIM as f32).sqrt();
    let mut scratch = AttendScratch::new();
    let mut out = vec![0.0f32; HEAD_DIM];

    let run = |scratch: &mut AttendScratch, out: &mut [f32]| {
        for head in 0..HEADS {
            let params = AttendParams::new(head, &query, scale, TOKENS)
                .with_alibi(0.4)
                .with_current(&current_k, &current_v);
            cache.attend(&params, scratch, out);
        }
    };

    // Warm-up sizes every scratch buffer for this geometry.
    run(&mut scratch, &mut out);

    let before = thread_allocations();
    for _ in 0..50 {
        run(&mut scratch, &mut out);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "{label}: steady-state attend allocated {} times over 100 calls",
        after - before
    );
}

fn random_kv(seed: u64, tokens: usize) -> (million_tensor::Matrix, million_tensor::Matrix) {
    let mut rng = seeded_rng(seed);
    (
        normal_matrix(&mut rng, tokens, layout().width(), 0.0, 1.0),
        normal_matrix(&mut rng, tokens, layout().width(), 0.0, 1.0),
    )
}

#[test]
fn pq_attend_is_allocation_free_when_scratch_is_warm() {
    let mut rng = seeded_rng(0);
    let samples = normal_matrix(&mut rng, 600, HEAD_DIM, 0.0, 1.0);
    let config = PqConfig::new(8, 4).unwrap();
    let key =
        Arc::new(PqCodebook::train(&config, &samples, &PqTrainOptions::default(), 0).unwrap());
    let value =
        Arc::new(PqCodebook::train(&config, &samples, &PqTrainOptions::default(), 1).unwrap());
    // residual_len > 0 exercises both the fused quantized kernel and the
    // dense-tail path in the same call.
    let mut cache = PqKvCache::new(layout(), PqCacheConfig::new(key, value, 8));
    let (k, v) = random_kv(1, TOKENS);
    cache.append(&k, &v);
    assert!(cache.quantized_len() > 0 && cache.recent_len() > 0);
    assert_attend_is_allocation_free(&cache, "million-pq");
}

#[test]
fn paged_pq_attend_through_a_block_chain_is_allocation_free() {
    // The paged layout: a chain of sealed shared blocks, a private quantized
    // tail, and a dense residual — all three segments walked in one attend.
    // Steady-state decode through the chain must allocate nothing.
    let mut rng = seeded_rng(7);
    let samples = normal_matrix(&mut rng, 600, HEAD_DIM, 0.0, 1.0);
    let config = PqConfig::new(8, 4).unwrap();
    let key =
        Arc::new(PqCodebook::train(&config, &samples, &PqTrainOptions::default(), 2).unwrap());
    let value =
        Arc::new(PqCodebook::train(&config, &samples, &PqTrainOptions::default(), 3).unwrap());
    let mut cache = PqKvCache::new(layout(), PqCacheConfig::new(key, value, 8));
    let (k, v) = random_kv(8, TOKENS);
    cache.append(&k, &v);
    // Seal the oldest 64 quantized tokens into four 16-token shared blocks.
    for _ in 0..4 {
        let (keys, values) = cache.take_private_front(16);
        cache.attach_shared_block(Arc::new(Block::new(1, HEADS, keys, values)));
    }
    assert_eq!(cache.shared_blocks().len(), 4);
    assert!(cache.private_quantized_len() > 0 && cache.recent_len() > 0);
    assert_attend_is_allocation_free(&cache, "million-pq-paged");
}

#[test]
fn baseline_attends_are_allocation_free_when_scratch_is_warm() {
    let (k, v) = random_kv(2, TOKENS);

    let mut full = FullPrecisionCache::new(layout());
    full.append(&k, &v);
    assert_attend_is_allocation_free(&full, "fp16");

    let mut kivi = KiviCache::new(
        layout(),
        KiviConfig {
            bits: 4,
            // 96 tokens = 3 full groups of 28 + a 12-token residual, so both
            // the quantized and residual paths run.
            group_size: 28,
        },
    );
    kivi.append(&k, &v);
    assert!(kivi.group_count() > 0 && kivi.residual_len() > 0);
    assert_attend_is_allocation_free(&kivi, "kivi");

    let mut kvq = KvQuantCache::new(layout(), KvQuantConfig::default());
    kvq.append(&k, &v);
    assert!(kvq.block_count() > 0 && kvq.pending_len() > 0);
    assert_attend_is_allocation_free(&kvq, "kvquant");
}

#[test]
fn encoding_allocates_nothing_per_row_once_capacity_is_reserved() {
    let mut rng = seeded_rng(11);
    let samples = normal_matrix(&mut rng, 600, HEAD_DIM, 0.0, 1.0);
    let config = PqConfig::new(16, 8).unwrap();
    let codebook = PqCodebook::train(&config, &samples, &PqTrainOptions::default(), 4).unwrap();

    // One row through `encode_into` into reserved packed storage.
    let mut codes = PqCodes::with_capacity(config, TOKENS);
    let mut row = vec![0u16; config.m];
    let before = thread_allocations();
    for t in 0..TOKENS {
        codebook.encode_into(samples.row(t), &mut row);
        codes.push(&row);
    }
    assert_eq!(thread_allocations() - before, 0, "encode_into + push");
    assert_eq!(codes.len(), TOKENS);

    // `encode_tokens` allocates its outputs up front: the count does not
    // depend on how many rows it encodes.
    let encode_allocations = |tokens: usize| {
        let (k, v) = random_kv(12, tokens);
        let before = thread_allocations();
        let encoded = PqKvCache::encode_tokens(&codebook, &codebook, &layout(), &k, &v);
        let allocated = thread_allocations() - before;
        assert_eq!(encoded.len(), tokens);
        allocated
    };
    assert_eq!(encode_allocations(1), encode_allocations(TOKENS));
}
