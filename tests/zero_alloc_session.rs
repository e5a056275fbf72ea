//! Allocation profile of a warm [`InferenceSession::step_with`] on
//! `tiny-test`: the session layer's share of the scratch lifecycle proof
//! (the model, cache and telemetry layers have their own counting-allocator
//! suites).
//!
//! A decode step is not allocation-free at this layer, and these tests pin
//! what it does allocate rather than claim zero:
//!
//! - sealing a block into the store (`maybe_seal`: the block's token list,
//!   its code vectors, the store's index entries) allocates the same fixed
//!   count every time;
//! - a step that seals nothing allocates at most once — a doubling of the
//!   session's `generated` or `history` vector, so O(log n) such steps in n;
//! - under the default asynchronous quantization, each encode hand-off
//!   (the drained-results vector, the dense staging copies, now and then a
//!   channel block) allocates a bounded count, so no step's count grows
//!   with position.
//!
//! Same counting-allocator technique as `crates/model/tests/zero_alloc_step.rs`:
//! a per-thread counter (const-initialised TLS, so reading it never
//! allocates), read around each step. The quantization worker's own
//! allocations land on its thread and are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use million::{MillionConfig, MillionEngine};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{ModelConfig, Sampler, Transformer};

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

const PROMPT_TOKENS: usize = 40;
const BLOCK_TOKENS: usize = 32;

/// One measured decode step.
#[derive(Debug)]
struct Step {
    /// Tokens in the caches after the step.
    position: usize,
    allocations: usize,
    /// Blocks the step sealed into the store.
    sealed_blocks: usize,
}

/// Builds a `tiny-test` engine, prefills a `PROMPT_TOKENS` prompt, takes two
/// warm-up steps (the second is the first to feed a token, so it sizes the
/// session's step scratch), then counts this thread's allocations across
/// each of `steps` greedy steps.
fn profile(engine_cfg: MillionConfig, steps: usize) -> Vec<Step> {
    let config = ModelConfig::tiny_for_tests();
    let model = Transformer::new(config.clone(), 41);
    let corpus = SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size));
    let engine_cfg = engine_cfg.with_block_tokens(BLOCK_TOKENS);
    let engine =
        MillionEngine::new(model, engine_cfg, &corpus.generate(256)).expect("engine builds");
    let prompt =
        SyntheticCorpus::new(CorpusConfig::ptb_like(config.vocab_size)).generate(PROMPT_TOKENS);

    let mut session = engine.session();
    let mut sampler = Sampler::greedy();
    session.prefill(&prompt);
    session.step_with(&mut sampler);
    session.step_with(&mut sampler);
    (0..steps)
        .map(|_| {
            let sealed_before = session.sealed_tokens();
            let before = thread_allocations();
            session.step_with(&mut sampler);
            let allocations = thread_allocations() - before;
            Step {
                position: session.cached_tokens(),
                allocations,
                sealed_blocks: (session.sealed_tokens() - sealed_before) / BLOCK_TOKENS,
            }
        })
        .collect()
}

fn four_bit() -> MillionConfig {
    MillionConfig::four_bit(ModelConfig::tiny_for_tests().head_dim())
}

#[test]
fn sync_steps_allocate_only_to_seal_blocks_and_grow_vectors() {
    let steps = profile(four_bit().with_sync_quant(), 80);

    // Positions 42..=121 complete the blocks ending at 64 and 96, one per
    // step, and each seal costs the same.
    let seals: Vec<&Step> = steps.iter().filter(|s| s.sealed_blocks > 0).collect();
    let seal_positions: Vec<(usize, usize)> = seals
        .iter()
        .map(|s| (s.position, s.sealed_blocks))
        .collect();
    assert_eq!(seal_positions, [(64, 1), (96, 1)], "{steps:?}");
    assert!(seals[0].allocations > 0, "{steps:?}");
    assert!(
        seals.iter().all(|s| s.allocations == seals[0].allocations),
        "seals allocate unequal counts: {seals:?}"
    );

    // Between seals the only allocations are `generated` and `history`
    // doubling their capacity: at most one per step, O(log n) steps in all.
    let growing: Vec<&Step> = steps
        .iter()
        .filter(|s| s.sealed_blocks == 0 && s.allocations > 0)
        .collect();
    assert!(
        growing.iter().all(|s| s.allocations == 1),
        "a step that sealed nothing allocated more than once: {growing:?}"
    );
    let last = steps.last().expect("steps ran").position;
    let doublings = 2 * (last.ilog2() as usize + 1);
    assert!(
        growing.len() <= doublings,
        "{} allocating steps between seals, more than {doublings} doublings: {growing:?}",
        growing.len()
    );
}

#[test]
fn async_steps_allocate_a_count_that_does_not_grow_with_position() {
    let seal = profile(four_bit().with_sync_quant(), 80)
        .iter()
        .find(|s| s.sealed_blocks > 0)
        .expect("the sync run seals a block")
        .allocations;

    // Up to the context window, so a per-step cost that grew with position
    // would show. Which step absorbs a finished batch, hands off the next
    // and seals depends on the worker thread; the bounds do not.
    //
    // A step that seals nothing: the drained-results vector, then per layer its two dense
    // staging matrices and at most one new channel block; plus the
    // `generated` and `history` doublings. When the worker lags further
    // behind than it ever has, each layer's per-head dense window and code
    // tail (keys and values) may also grow to a new high-water mark.
    let config = ModelConfig::tiny_for_tests();
    let high_water = 4 * config.n_layers * config.n_kv_heads;
    let unsealed = 1 + 3 * config.n_layers + 2 + high_water;
    // A seal beyond the first few may also double the vectors that hold one
    // entry per block: each layer's shared chain, the session's chain
    // handle, and the store's slab and index.
    let block = seal + config.n_layers + 3;
    let steps = profile(four_bit(), 200);
    assert!(steps.iter().any(|s| s.sealed_blocks > 0), "{steps:?}");
    for s in &steps {
        let bound = unsealed + s.sealed_blocks * block;
        assert!(
            s.allocations <= bound,
            "step to position {} allocated {} times, more than {bound}: {steps:?}",
            s.position,
            s.allocations
        );
    }
}
