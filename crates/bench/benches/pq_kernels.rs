//! Criterion micro-benchmarks for the PQ kernels behind MILLION:
//! codebook training, encoding, decoding, LUT construction, the centroid mix,
//! the k-means assignment scan, ADC scoring —
//! and the fused packed decode kernel, whole and as the 32-token chunks of a
//! paged block chain.

use criterion::{criterion_group, criterion_main, Criterion};
use million_quant::bitpack::PackedCodes;
use million_quant::kmeans::nearest_in_planes;
use million_quant::pq::{
    FusedState, PqCodebook, PqCodes, PqConfig, PqTrainOptions, ValueAccumulator,
};
use million_tensor::init::{normal_matrix, seeded_rng};

const HEAD_DIM: usize = 128;
const TOKENS: usize = 4096;

fn trained(nbits: u8, seed: u64) -> PqCodebook {
    let mut rng = seeded_rng(seed);
    let samples = normal_matrix(&mut rng, 2048, HEAD_DIM, 0.0, 1.0);
    let config = PqConfig::new(32, nbits).expect("valid config");
    PqCodebook::train(&config, &samples, &PqTrainOptions::default(), seed).expect("train")
}

fn setup() -> (PqCodebook, PqCodes, Vec<f32>) {
    let codebook = trained(8, 0);
    let mut rng = seeded_rng(42);
    let data = normal_matrix(&mut rng, TOKENS, HEAD_DIM, 0.0, 1.0);
    let codes = codebook.encode_matrix(&data);
    let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.13).sin()).collect();
    (codebook, codes, query)
}

fn bench_pq(c: &mut Criterion) {
    let (codebook, codes, query) = setup();
    let mut rng = seeded_rng(1);
    let vector = normal_matrix(&mut rng, 1, HEAD_DIM, 0.0, 1.0);

    c.bench_function("pq_encode_single_vector", |b| {
        b.iter(|| codebook.encode(std::hint::black_box(vector.row(0))))
    });

    c.bench_function("pq_encode_into", |b| {
        let mut row = vec![0u16; codebook.config().m];
        b.iter(|| {
            codebook.encode_into(std::hint::black_box(vector.row(0)), &mut row);
            row[0]
        })
    });

    c.bench_function("pq_decode_single_vector", |b| {
        let enc = codebook.encode(vector.row(0));
        b.iter(|| codebook.decode(std::hint::black_box(&enc)))
    });

    c.bench_function("pq_score_lut_build", |b| {
        b.iter(|| codebook.score_lut(std::hint::black_box(&query)))
    });

    c.bench_function("pq_value_mix_finish_into", |b| {
        let mut acc = ValueAccumulator::for_codebook(&codebook);
        for t in 0..codes.len() {
            acc.add_indexed(1.0 / (t + 1) as f32, &codes, t);
        }
        let mut out = vec![0.0f32; HEAD_DIM];
        b.iter(|| {
            std::hint::black_box(&acc).finish_into(&codebook, &mut out);
            out[0]
        })
    });

    c.bench_function("kmeans_assignment_4096x256", |b| {
        // One Lloyd assignment step of a sub-dim-2 subspace: 4096 samples
        // against 256 centroids held as `[dim][k]` planes.
        let samples = normal_matrix(&mut seeded_rng(5), 4096, 2, 0.0, 1.0);
        let planes = normal_matrix(&mut seeded_rng(6), 2, 256, 0.0, 1.0);
        b.iter(|| {
            (0..samples.rows())
                .map(|r| {
                    nearest_in_planes(std::hint::black_box(samples.row(r)), planes.as_slice(), 256)
                        .0
                })
                .sum::<usize>()
        })
    });

    c.bench_function("pq_adc_scores_4096_tokens_packed", |b| {
        let lut = codebook.score_lut(&query);
        let mut out = vec![0.0f32; TOKENS];
        b.iter(|| {
            lut.scores_into(std::hint::black_box(&codes), &mut out);
            out[0]
        })
    });

    c.bench_function("pq_value_mass_accumulation_4096_tokens", |b| {
        b.iter(|| {
            let mut acc = ValueAccumulator::for_codebook(&codebook);
            for t in 0..codes.len() {
                acc.add_indexed(1.0 / (t + 1) as f32, &codes, t);
            }
            let mut out = vec![0.0f32; HEAD_DIM];
            acc.finish_into(&codebook, &mut out);
            out
        })
    });

    c.bench_function("bitpack_pack_unpack_8k_codes", |b| {
        let raw: Vec<u16> = (0..8192).map(|i| (i % 4096) as u16).collect();
        b.iter(|| {
            let packed = PackedCodes::pack(std::hint::black_box(&raw), 12).expect("pack");
            packed.unpack()
        })
    });
}

/// The fused attend kernel at a 4k-token context, for 8-bit and 4-bit
/// codes: over one code block, and over the same tokens as 32-token blocks.
fn bench_attend_kernels(c: &mut Criterion) {
    for nbits in [8u8, 4] {
        let key_cb = trained(nbits, 2);
        let value_cb = trained(nbits, 3);
        let mut rng = seeded_rng(7);
        let data = normal_matrix(&mut rng, TOKENS, HEAD_DIM, 0.0, 1.0);
        let key_codes = key_cb.encode_matrix(&data);
        let value_codes = value_cb.encode_matrix(&data);
        let query: Vec<f32> = (0..HEAD_DIM).map(|i| (i as f32 * 0.19).cos()).collect();
        let lut = key_cb.score_lut(&query);
        let scale = 1.0 / (HEAD_DIM as f32).sqrt();

        let mut group = c.benchmark_group(&format!("attend_kernel_{TOKENS}tok_{nbits}bit"));
        group.bench_function("fused_packed", |b| {
            let mut acc = ValueAccumulator::new(1, 1);
            let mut out = vec![0.0f32; HEAD_DIM];
            b.iter(|| {
                let lut = std::hint::black_box(&lut);
                let (_max, sum) = lut.fused_attend(&key_codes, &value_codes, scale, None, &mut acc);
                acc.finish_into(&value_cb, &mut out);
                out.iter_mut().for_each(|v| *v /= sum);
                out[0]
            })
        });
        group.bench_function("fused_packed_paged32", |b| {
            // The same tokens as the block store holds them: one chunk per
            // 32-token block, walked through one online-softmax state.
            let chunks: Vec<(PqCodes, PqCodes)> = (0..TOKENS)
                .step_by(32)
                .map(|start| {
                    (
                        key_codes.clone_rows(start, 32),
                        value_codes.clone_rows(start, 32),
                    )
                })
                .collect();
            let mut acc = ValueAccumulator::for_codebook(&value_cb);
            let mut out = vec![0.0f32; HEAD_DIM];
            b.iter(|| {
                let lut = std::hint::black_box(&lut);
                acc.reset();
                let mut state = FusedState::new();
                for (keys, values) in &chunks {
                    lut.fused_attend_chunk(keys, values, scale, None, &mut acc, &mut state);
                }
                acc.finish_into(&value_cb, &mut out);
                out.iter_mut().for_each(|v| *v /= state.sum_exp);
                out[0]
            })
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pq, bench_attend_kernels
}
criterion_main!(benches);
