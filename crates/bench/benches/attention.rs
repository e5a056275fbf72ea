//! Criterion benchmark of decode-time attention over each KV-cache backend —
//! the CPU analogue of the paper's SDPA comparison (Fig. 7) — and of the
//! tiled prompt attention a cold prefill runs before the prompt is encoded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use million_kvcache::{
    AttendParams, AttendScratch, CacheLayout, FullPrecisionCache, KiviCache, KiviConfig, KvCache,
    KvQuantCache, KvQuantConfig, PqCacheConfig, PqKvCache,
};
use million_model::{prefill_attention_tiled, PrefillScratch};
use million_quant::pq::{PqCodebook, PqConfig, PqTrainOptions};
use million_tensor::init::{normal_matrix, seeded_rng};
use million_tensor::Matrix;
use std::sync::Arc;

const HEAD_DIM: usize = 64;

fn filled<C: KvCache>(mut cache: C, tokens: usize) -> C {
    let mut rng = seeded_rng(7);
    let keys = normal_matrix(&mut rng, tokens, HEAD_DIM, 0.0, 1.0);
    let values = normal_matrix(&mut rng, tokens, HEAD_DIM, 0.0, 1.0);
    cache.append(&keys, &values);
    cache
}

fn pq_cache(tokens: usize) -> PqKvCache {
    let mut rng = seeded_rng(8);
    let samples = normal_matrix(&mut rng, 1024, HEAD_DIM, 0.0, 1.0);
    let config = PqConfig::new(16, 8).expect("valid");
    let cb = Arc::new(
        PqCodebook::train(&config, &samples, &PqTrainOptions::default(), 0).expect("train"),
    );
    filled(
        PqKvCache::new(
            CacheLayout::new(1, HEAD_DIM),
            PqCacheConfig::new(cb.clone(), cb, 0),
        ),
        tokens,
    )
}

fn bench_attention(c: &mut Criterion) {
    let layout = CacheLayout::new(1, HEAD_DIM);
    let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.21).cos()).collect();
    let scale = 1.0 / (HEAD_DIM as f32).sqrt();

    let mut group = c.benchmark_group("decode_attention");
    for &tokens in &[2048usize, 8192] {
        let full = filled(FullPrecisionCache::new(layout), tokens);
        let kivi = filled(KiviCache::new(layout, KiviConfig::default()), tokens);
        let kvq = {
            let mut cache = filled(KvQuantCache::new(layout, KvQuantConfig::default()), tokens);
            cache.flush();
            cache
        };
        let pq = pq_cache(tokens);

        let caches: Vec<(&str, &dyn KvCache)> = vec![
            ("fp16", &full),
            ("kivi-4b", &kivi),
            ("kvquant-4b", &kvq),
            ("million-pq", &pq),
        ];
        for (name, cache) in caches {
            group.bench_with_input(BenchmarkId::new(name, tokens), &tokens, |b, _| {
                let mut out = vec![0.0f32; HEAD_DIM];
                let mut scratch = AttendScratch::new();
                b.iter(|| {
                    cache.attend(
                        &AttendParams::new(0, std::hint::black_box(&query), scale, tokens),
                        &mut scratch,
                        &mut out,
                    );
                    out[0]
                })
            });
        }
    }
    group.finish();
}

/// One layer of causal prompt attention at the long-context geometry (8
/// heads of 32 channels), on one worker.
fn bench_prefill_attention(c: &mut Criterion) {
    const HEADS: usize = 8;
    const PREFILL_HEAD_DIM: usize = 32;
    let width = HEADS * PREFILL_HEAD_DIM;
    let scale = 1.0 / (PREFILL_HEAD_DIM as f32).sqrt();
    let mut group = c.benchmark_group("prefill_attention");
    for &tokens in &[512usize, 2048] {
        let mut rng = seeded_rng(11);
        let q = normal_matrix(&mut rng, tokens, width, 0.0, 1.0);
        let k = normal_matrix(&mut rng, tokens, width, 0.0, 1.0);
        let v = normal_matrix(&mut rng, tokens, width, 0.0, 1.0);
        let mut scratch = PrefillScratch::with_workers(1);
        let mut attn = Matrix::default();
        group.bench_with_input(BenchmarkId::new("tiled", tokens), &tokens, |b, _| {
            b.iter(|| {
                prefill_attention_tiled(
                    std::hint::black_box(&q),
                    &k,
                    &v,
                    HEADS,
                    HEADS,
                    scale,
                    None,
                    &mut scratch,
                    &mut attn,
                );
                attn.get(0, 0)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_attention, bench_prefill_attention
}
criterion_main!(benches);
