//! Layer probes: after a traced timed phase, the workload's shapes are
//! replayed through the lower layers' public functions, on caches the probe
//! builds itself and fills with seeded rows, so each layer gets a cost that
//! can be reconciled against the layer above it.
//!
//! Everything here is timed with `Instant` around public calls; nothing
//! inside the crates is instrumented. Byte figures are computed from tensor
//! sizes, never measured.

use std::hint::black_box;
use std::time::{Duration, Instant};

use million::async_quant::EncodeRequest;
use million::{MillionEngine, QuantWorker, StoreStats};
use million_kvcache::{AttendParams, AttendScratch, KvCache, PqCacheConfig, PqKvCache};
use million_model::{
    build_caches, prefill_attention_tiled, CacheSpec, PrefillScratch, StepScratch,
};
use million_quant::pq::{ScoreLut, ValueAccumulator};
use million_store::{Block, BlockStore};
use million_tensor::init::{normal_matrix, seeded_rng};
use million_tensor::ops::{vec_matmul_into, vec_matmul_transposed_into};
use million_tensor::Matrix;
use rand::rngs::StdRng;

use crate::gen::corpus_tokens;
use crate::stats::median;
use crate::trace::residual_share;
use crate::workloads::{Outcome, RunOptions};

/// Median nanoseconds of one `f()` call: batches sized to about a
/// millisecond, five batches.
fn call_ns(mut f: impl FnMut()) -> f64 {
    let once = Instant::now();
    f();
    let first = once.elapsed().max(Duration::from_nanos(20));
    let per_batch = (Duration::from_millis(1).as_nanos() / first.as_nanos()).clamp(1, 100_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches)
}

/// Wall nanoseconds of one `f()` call that is too long to repeat.
fn once_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// Per-layer caches configured like a session's: appends stay dense when the
/// engine quantizes asynchronously, so a decode step pays no encode.
fn session_caches(engine: &MillionEngine) -> Vec<PqKvCache> {
    let layout = engine.model().cache_layout();
    let books = engine.codebooks();
    (0..books.n_layers())
        .map(|layer| {
            let mut config = PqCacheConfig::new(
                books.key[layer].clone(),
                books.value[layer].clone(),
                engine.config().residual_len,
            )
            .with_layer(layer);
            config.auto_encode = !engine.config().async_quant;
            PqKvCache::new(layout, config)
        })
        .collect()
}

/// Appends `tokens` seeded rows to every cache, in chunks. Returns the
/// nanoseconds spent inside `KvCache::append`.
fn fill<C: KvCache>(caches: &mut [C], tokens: usize, rng: &mut StdRng) -> f64 {
    let width = caches[0].layout().width();
    let mut append_ns = 0.0;
    let mut left = tokens;
    while left > 0 {
        let rows = left.min(512);
        let keys = normal_matrix(rng, rows, width, 0.0, 1.0);
        let values = normal_matrix(rng, rows, width, 0.0, 1.0);
        let start = Instant::now();
        for cache in caches.iter_mut() {
            cache.append(&keys, &values);
        }
        append_ns += start.elapsed().as_nanos() as f64;
        left -= rows;
    }
    append_ns
}

/// Quantizes whatever the caches still hold densely, as the quantization
/// worker would have by the time a context this long was reached.
fn settle(engine: &MillionEngine, caches: &mut [PqKvCache]) {
    let layout = engine.model().cache_layout();
    let books = engine.codebooks();
    for (layer, cache) in caches.iter_mut().enumerate() {
        if let Some((keys, values)) = cache.encodable_dense() {
            cache.absorb_encoded(PqKvCache::encode_tokens(
                &books.key[layer],
                &books.value[layer],
                &layout,
                &keys,
                &values,
            ));
        }
    }
}

/// Median microseconds of one `decode_step_into` at the caches' context.
fn decode_us<C: KvCache>(
    engine: &MillionEngine,
    caches: &mut [C],
    scratch: &mut StepScratch,
) -> f64 {
    let vocab = engine.model().config().vocab_size as u32;
    let steps: Vec<f64> = (0..16u32)
        .map(|i| {
            let start = Instant::now();
            black_box(engine.model().decode_step_into(i % vocab, caches, scratch));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&steps)
}

/// Microseconds of one head's decode-time `attend` over everything cached.
fn attend_us(cache: &dyn KvCache, rng: &mut StdRng) -> f64 {
    let head_dim = cache.layout().head_dim;
    let row = normal_matrix(rng, 3, head_dim, 0.0, 1.0);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let params =
        AttendParams::new(0, row.row(0), scale, cache.len()).with_current(row.row(1), row.row(2));
    let mut scratch = AttendScratch::new();
    let mut out = vec![0.0f32; head_dim];
    call_ns(|| cache.attend(&params, &mut scratch, black_box(&mut out))) / 1e3
}

/// Running view of a block store while sessions are live.
#[derive(Debug, Default)]
pub struct StoreWatch {
    max_dedup_ratio: f64,
    resident_over_referenced: Vec<f64>,
}

impl StoreWatch {
    /// Folds in one reading of the store's counters.
    pub fn sample(&mut self, stats: &StoreStats) {
        self.max_dedup_ratio = self.max_dedup_ratio.max(stats.dedup_ratio());
        let referenced = stats.resident_bytes - stats.cached_bytes;
        if referenced > 0 {
            self.resident_over_referenced
                .push(stats.resident_bytes as f64 / referenced as f64);
        }
    }

    /// Emits the store's workload counters: what share of prompt tokens were
    /// attached instead of prefilled, and what retention cost.
    pub fn emit(
        &self,
        end: &StoreStats,
        prompt_tokens: f64,
        reused_tokens: f64,
        out: &mut Outcome,
    ) {
        out.set("store.prefix_hit_share", reused_tokens / prompt_tokens);
        out.set("store.dedup_ratio", self.max_dedup_ratio.max(1.0));
        out.set("store.evicted_blocks", end.evicted_blocks as f64);
        let ratios = &self.resident_over_referenced;
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        out.set("store.resident_vs_referenced_bytes", mean);
    }
}

/// [`StoreWatch`] for a workload whose store is read once, after its sessions
/// are gone.
pub fn store_counters(
    engine: &MillionEngine,
    prompt_tokens: f64,
    reused_tokens: f64,
    out: &mut Outcome,
) {
    let stats = engine.store_stats().unwrap_or_default();
    let mut watch = StoreWatch::default();
    watch.sample(&stats);
    watch.emit(&stats, prompt_tokens, reused_tokens, out);
}

/// Sizes of the probe ladder; the model-level rungs stay inside the model's
/// context window.
struct Ladder {
    ctx_short: usize,
    ctx_mid: usize,
    ctx_long: usize,
    /// Prefill chunk (`n512`) and four of them (`n2048`, `long_context`'s
    /// prompt).
    n_small: usize,
    n_large: usize,
}

/// Shared state of one probe run.
struct Probes<'a> {
    engine: &'a MillionEngine,
    seed: u64,
    rng: StdRng,
    ladder: Ladder,
    scale: f32,
}

/// Runs every engine-level probe against `engine` and records the per-layer
/// metrics of `tensor`, `quant`, `kvcache`, `store`, `model`,
/// `million::session` and `million::async_quant`.
pub fn run(engine: &MillionEngine, train_s: f64, options: &RunOptions, out: &mut Outcome) {
    let config = engine.model().config();
    let window = config.max_seq_len;
    let (ctx_short, ctx_mid, ctx_long, chunk) = if options.smoke {
        (64, 128, 512, 64)
    } else {
        (256, 1024, 8192, 512)
    };
    let mut probes = Probes {
        engine,
        seed: options.seed,
        rng: seeded_rng(options.seed ^ 0x0980_6BE5),
        ladder: Ladder {
            ctx_short: ctx_short.min(window - 64),
            ctx_mid: ctx_mid.min(window - 32),
            ctx_long,
            n_small: chunk.min(window),
            n_large: (4 * chunk).min(window),
        },
        scale: 1.0 / (config.head_dim() as f32).sqrt(),
    };
    let dense_step_us = probes.tensor(out);
    probes.quant(train_s, out);
    let step_short_us = probes.decode_ladder(dense_step_us, out);
    let small_prefill_ns = probes.prefill(out);
    probes.session(step_short_us, small_prefill_ns, out);
    probes.async_quant(out);
    probes.store(out);
}

impl Probes<'_> {
    fn tokens(&self, salt: u64, len: usize) -> Vec<u32> {
        let vocab = self.engine.model().config().vocab_size;
        corpus_tokens(vocab, self.seed ^ salt, len)
    }

    /// `tensor`: one decode step's GEMVs — every layer's six projections,
    /// each touched once per pass as in a real step, so the weights stream
    /// through the cache hierarchy instead of sitting hot — and the prefill
    /// GEMM. Returns the microseconds of the GEMV pass.
    fn tensor(&mut self, out: &mut Outcome) -> f64 {
        let config = self.engine.model().config();
        let weights = self.engine.model().weights();
        let (d, d_ff) = (config.d_model, config.d_ff);
        let x = normal_matrix(&mut self.rng, 1, d_ff.max(d), 0.0, 1.0);
        let mut y = vec![0.0f32; d_ff.max(d)];
        let dense_step_ns = call_ns(|| {
            for layer in &weights.layers {
                for m in [
                    &layer.wq,
                    &layer.wk,
                    &layer.wv,
                    &layer.wo,
                    &layer.w_in,
                    &layer.w_out,
                ] {
                    vec_matmul_into(&x.row(0)[..m.rows()], m, black_box(&mut y[..m.cols()]));
                }
            }
        });
        let step_kmac =
            (config.n_layers * (2 * d * d + 2 * d * config.kv_width() + 2 * d * d_ff)) as f64 / 1e3;
        out.set("tensor.vec_matmul_ns_per_kmac", dense_step_ns / step_kmac);
        let rows = self.ladder.n_small;
        let activations = normal_matrix(&mut self.rng, rows, d, 0.0, 1.0);
        let gemm_ns = call_ns(|| {
            black_box(activations.matmul(&weights.layers[0].wq));
        });
        out.set(
            "tensor.matmul_ns_per_kmac",
            gemm_ns / ((rows * d * d) as f64 / 1e3),
        );
        dense_step_ns / 1e3
    }

    /// `quant`: LUT build, the fused code walk, encoding, and training.
    fn quant(&mut self, train_s: f64, out: &mut Outcome) {
        let head_dim = self.engine.model().config().head_dim();
        let key_cb = &self.engine.codebooks().key[0];
        let value_cb = &self.engine.codebooks().value[0];
        let n = self.ladder.ctx_long;
        let query = normal_matrix(&mut self.rng, 1, head_dim, 0.0, 1.0);
        let mut lut = ScoreLut::empty();
        out.set(
            "quant.lut_build_ns",
            call_ns(|| lut.fill_from(key_cb, black_box(query.row(0)))),
        );
        let vectors = normal_matrix(&mut self.rng, n, head_dim, 0.0, 1.0);
        let (key_codes, encode_ns) = once_ns(|| key_cb.encode_matrix(&vectors));
        out.set("quant.encode_ns_per_vector", encode_ns / n as f64);
        let value_codes = value_cb.encode_matrix(&vectors);
        let mut acc = ValueAccumulator::for_codebook(value_cb);
        let walk_ns = call_ns(|| {
            black_box(lut.fused_attend(&key_codes, &value_codes, self.scale, None, &mut acc));
        });
        out.set("quant.fused_attend_ns_per_token", walk_ns / n as f64);
        out.set("quant.train_s", train_s);
    }

    /// Session-like caches filled to `tokens` and settled.
    fn filled(&mut self, tokens: usize) -> (Vec<PqKvCache>, f64) {
        let mut caches = session_caches(self.engine);
        let append_ns = fill(&mut caches, tokens, &mut self.rng);
        settle(self.engine, &mut caches);
        (caches, append_ns)
    }

    /// `kvcache` and `model` decode on PQ caches filled to each rung, with the
    /// decode-step reconciliation at the short rung. Returns the short rung's
    /// step microseconds.
    fn decode_ladder(&mut self, dense_step_us: f64, out: &mut Outcome) -> f64 {
        let engine = self.engine;
        let model = engine.model();
        let config = model.config();
        let mut scratch = StepScratch::new();

        // A step over an empty cache is the context-independent part of a
        // step; what a longer context adds on top is attention. (A sum of
        // per-head `attend` times would overstate it once heads fan out
        // across cores.)
        let step_base_us = decode_us(engine, &mut session_caches(engine), &mut scratch);
        let attention_share = |step_us: f64| (step_us - step_base_us) / step_us;

        let (mut short, _) = self.filled(self.ladder.ctx_short);
        let attend_short_us = attend_us(&short[0], &mut self.rng);
        let step_short_us = decode_us(engine, &mut short, &mut scratch);
        out.set("model.decode_step_us.ctx256", step_short_us);
        out.set(
            "model.decode_attention_share.ctx256",
            attention_share(step_short_us),
        );
        let x = normal_matrix(&mut self.rng, 1, config.d_model, 0.0, 1.0);
        let mut logits = vec![0.0f32; config.vocab_size];
        let logits_us = call_ns(|| {
            vec_matmul_transposed_into(x.row(0), &model.weights().embedding, black_box(&mut logits))
        }) / 1e3;
        out.set("model.logits_us", logits_us);
        out.set(
            "model.decode_step.residual_share",
            residual_share(
                step_short_us,
                &[
                    attend_short_us * (config.n_layers * config.n_heads) as f64,
                    dense_step_us,
                    logits_us,
                ],
            ),
        );
        drop(short);

        let mid_tokens = self.ladder.ctx_mid;
        let (mut mid, append_ns) = self.filled(mid_tokens);
        out.set(
            "kvcache.append_ns_per_token",
            append_ns / (mid_tokens * config.n_layers) as f64,
        );
        out.set(
            "kvcache.pq_attend_us.ctx1k",
            attend_us(&mid[0], &mut self.rng),
        );
        let extend_tokens = self.tokens(0xE87, 16);
        let ((), extend_ns) = once_ns(|| {
            black_box(model.extend_into(&extend_tokens, &mut mid, &mut scratch));
        });
        out.set("model.extend_us_per_token.ctx1k", extend_ns / 16.0 / 1e3);
        drop(mid);

        let long_tokens = self.ladder.ctx_long;
        let (mut long, _) = self.filled(long_tokens);
        let attend_long_us = attend_us(&long[0], &mut self.rng);
        out.set("kvcache.pq_attend_us.ctx8k", attend_long_us);
        out.set(
            "kvcache.bytes_per_token",
            (long[0].memory_bytes() * config.n_layers) as f64 / long_tokens as f64,
        );
        let step_long_us = decode_us(engine, &mut long, &mut scratch);
        out.set("model.decode_step_us.ctx8k", step_long_us);
        out.set(
            "model.decode_attention_share.ctx8k",
            attention_share(step_long_us),
        );
        drop(long);

        let mut full = build_caches(config, &CacheSpec::Full);
        full.truncate(1);
        fill(&mut full, long_tokens, &mut self.rng);
        let full_us = attend_us(&*full[0], &mut self.rng);
        out.set("kvcache.full_attend_us.ctx8k", full_us);
        out.set("kvcache.pq_vs_full_speedup.ctx8k", full_us / attend_long_us);
        step_short_us
    }

    /// `model` prefill, and the share of it that is tiled attention. Returns
    /// the nanoseconds of the small prefill.
    fn prefill(&mut self, out: &mut Outcome) -> f64 {
        let engine = self.engine;
        let config = engine.model().config();
        let (n_small, n_large) = (self.ladder.n_small, self.ladder.n_large);
        let mut scratch = PrefillScratch::new();
        let mut prefill_ns = |tokens: Vec<u32>| {
            let mut caches = session_caches(engine);
            once_ns(|| {
                black_box(engine.model().prefill_with_scratch(
                    &tokens,
                    &mut caches,
                    None,
                    &mut scratch,
                ));
            })
            .1
        };
        let small_ns = prefill_ns(self.tokens(0x9F1, n_small));
        let large_ns = prefill_ns(self.tokens(0x9F1, n_large));
        out.set(
            "model.prefill_us_per_token.n512",
            small_ns / n_small as f64 / 1e3,
        );
        out.set(
            "model.prefill_us_per_token.n2048",
            large_ns / n_large as f64 / 1e3,
        );
        let q = normal_matrix(&mut self.rng, n_large, config.d_model, 0.0, 1.0);
        let kv = normal_matrix(&mut self.rng, n_large, config.kv_width(), 0.0, 1.0);
        let mut attn = Matrix::zeros(0, 0);
        let ((), tiled_ns) = once_ns(|| {
            prefill_attention_tiled(
                &q,
                &kv,
                &kv,
                config.n_heads,
                config.n_kv_heads,
                self.scale,
                None,
                &mut scratch,
                &mut attn,
            );
        });
        out.set(
            "model.prefill_attention_share",
            tiled_ns * config.n_layers as f64 / large_ns,
        );
        small_ns
    }

    /// `million::session`: what the session adds on top of the model calls.
    fn session(&mut self, step_short_us: f64, small_prefill_ns: f64, out: &mut Outcome) {
        let prompt = self.tokens(0x5E5, self.ladder.n_small);
        let mut session = self.engine.session();
        let ((), session_prefill_ns) = once_ns(|| session.prefill(&prompt));
        out.set(
            "session.prefill_overhead_share",
            residual_share(session_prefill_ns, &[small_prefill_ns]),
        );
        drop(session);
        let mut session = self.engine.session();
        session.prefill(&prompt[..self.ladder.ctx_short]);
        let steps: Vec<f64> = (0..16)
            .map(|_| once_ns(|| black_box(session.step())).1 / 1e3)
            .collect();
        out.set("session.step_overhead_us", median(&steps) - step_short_us);
    }

    /// `million::async_quant`: the hand-off cost on the decode thread.
    fn async_quant(&mut self, out: &mut Outcome) {
        let model = self.engine.model();
        let books = self.engine.codebooks();
        let mut worker =
            QuantWorker::spawn(books.key.clone(), books.value.clone(), model.cache_layout());
        let rows = normal_matrix(&mut self.rng, 1, model.config().kv_width(), 0.0, 1.0);
        let submits: Vec<f64> = (0..64)
            .map(|_| {
                let request = EncodeRequest {
                    session: 0,
                    layer: 0,
                    keys: rows.clone(),
                    values: rows.clone(),
                };
                once_ns(|| worker.submit(request)).1 / 1e3
            })
            .collect();
        black_box(worker.drain_all());
        out.set("async_quant.submit_us", median(&submits));
    }

    /// `store`: publishing and re-attaching a chain of sealed blocks.
    fn store(&mut self, out: &mut Outcome) {
        const BLOCKS: usize = 64;
        let config = self.engine.model().config();
        let store = BlockStore::new(self.engine.config().block_tokens.max(1));
        let bt = store.block_tokens();
        let slots = config.n_layers * config.n_kv_heads;
        let chain_tokens = self.tokens(0x570, BLOCKS * bt);
        let rows = normal_matrix(&mut self.rng, bt, config.head_dim(), 0.0, 1.0);
        let block_codes = self.engine.codebooks().key[0].encode_matrix(&rows);
        let mut sealed: Vec<Block> = (0..BLOCKS)
            .map(|_| {
                let codes = || vec![block_codes.clone(); slots];
                Block::new(config.n_layers, config.n_kv_heads, codes(), codes())
            })
            .collect();
        let mut parent = None;
        let mut held = Vec::with_capacity(BLOCKS);
        let ((), insert_ns) = once_ns(|| {
            for tokens in chain_tokens.chunks_exact(bt) {
                let block = sealed.pop().expect("one block per chunk");
                let (id, arc) = store.insert_child(parent, tokens, block);
                parent = Some(id);
                held.push(arc);
            }
        });
        out.set("store.insert_us_per_block", insert_ns / BLOCKS as f64 / 1e3);
        let (attached, attach_ns) = once_ns(|| store.attach_prefix(&chain_tokens));
        assert_eq!(attached.len(), BLOCKS, "the whole chain re-attaches");
        out.set(
            "store.attach_prefix_us_per_block",
            attach_ns / BLOCKS as f64 / 1e3,
        );
    }
}
