//! The paper's quality evidence from one row loop: Table II (KL and
//! perplexity against the fp16 cache for KIVI, KVQuant, MILLION and scalar
//! codebooks at MILLION's bytes), the
//! footnote-2 `(M, nbits)` sweep and Table III(b) (key reconstruction error
//! with and without 1 % outlier extraction).
//!
//! Every model is built with one seed and calibrated once; each PQ
//! geometry's codebooks are trained once per model and reused by every
//! table. Nothing is scored on the tokens it was calibrated on: the
//! Wikitext-2 rows calibrate on tokens 0-255 of one stream and score tokens
//! 256-415 of it, the PTB rows score a stream from another generator, and
//! Table III(b) trains on keys captured from the calibration slice and
//! measures keys captured from the scored slice.
//!
//! "ppl" is `exp(cross-entropy against the fp16 reference)` and "KL" its
//! excess over the fp16 row (see `million_eval::perplexity`). The online
//! baselines fit their levels on the tokens they cache, so their labels say
//! so; KVQuant's also say how many cached tokens it still holds dense.
//!
//! Run with `cargo run --release -p million_bench --bin quality`.

use million::MillionConfig;
use million_bench::{
    model_methods, print_table, ptb_stream, quality_rows, sweep_methods, wikitext_stream,
    write_json, ModelMethods, QualityRow, KVQUANT_SEED,
};
use million_model::{build_caches, CacheSpec, KvCapture, ModelConfig, Transformer};
use million_quant::nuq::{NuqGranularity, NuqMatrix};
use million_quant::outlier::extract_outliers;
use million_quant::pq::PqCodebook;
use million_tensor::Matrix;
use serde::Serialize;

const MODEL_SEED: u64 = 21;
const CALIBRATION_TOKENS: usize = 256;
const SCORED_TOKENS: usize = 160;

#[derive(Serialize)]
struct KeyErrorRow {
    method: String,
    error_plain: f64,
    error_with_1pct: f64,
    sensitivity_pct: f64,
}

#[derive(Serialize)]
struct Report {
    rows: Vec<QualityRow>,
    key_error: Vec<KeyErrorRow>,
}

/// Layer-0 key vectors (one row per token and KV head) of a full-precision
/// prefill of `tokens`.
fn first_layer_keys(model: &Transformer, tokens: &[u32]) -> Matrix {
    let config = model.config();
    let mut caches = build_caches(config, &CacheSpec::Full);
    let mut capture = KvCapture::new(config.n_layers, config.head_dim(), tokens.len());
    let _ = model.prefill(tokens, &mut caches, Some(&mut capture));
    capture.key_head_vectors(0)
}

/// Mean squared error of KVQuant-style NUQ on `keys`, levels fitted on
/// `keys` themselves, with `fraction` of the entries kept dense.
fn nuq_error(keys: &Matrix, bits: u8, fraction: f64) -> f64 {
    let (clean, outliers) = extract_outliers(keys, fraction);
    let quantized =
        NuqMatrix::quantize(&clean, bits, NuqGranularity::PerChannel, KVQUANT_SEED).unwrap();
    let mut restored = quantized.dequantize();
    outliers.restore_into(&mut restored);
    restored.mse(keys)
}

/// Mean squared error of `codebook` on `keys`, with `fraction` of the
/// entries kept dense.
fn pq_error(codebook: &PqCodebook, keys: &Matrix, fraction: f64) -> f64 {
    let (clean, outliers) = extract_outliers(keys, fraction);
    let mut restored = codebook.decode_matrix(&codebook.encode_matrix(&clean));
    outliers.restore_into(&mut restored);
    restored.mse(keys)
}

/// Table III(b): the plain PQ rows use the loop's layer-0 key codebooks; the
/// 1 % rows retrain them the same way on the calibration keys with their
/// outliers taken out.
fn key_error_rows(
    model: &Transformer,
    set: &ModelMethods,
    calibration: &[u32],
    scored: &[u32],
) -> Vec<KeyErrorRow> {
    let head_dim = model.config().head_dim();
    let calibration_keys = first_layer_keys(model, calibration);
    let keys = first_layer_keys(model, scored);
    let pq_with_outliers = |config: &MillionConfig| {
        let (clean, _) = extract_outliers(&calibration_keys, 0.01);
        let codebook =
            PqCodebook::train(&config.pq, &clean, &config.train_options, config.seed).unwrap();
        pq_error(&codebook, &keys, 0.01)
    };
    let cases = [
        (
            "KVQuant-3b (online levels)",
            nuq_error(&keys, 3, 0.0),
            nuq_error(&keys, 3, 0.01),
        ),
        (
            "KVQuant-4b (online levels)",
            nuq_error(&keys, 4, 0.0),
            nuq_error(&keys, 4, 0.01),
        ),
        (
            "MILLION-3b",
            pq_error(&set.million3.key[0], &keys, 0.0),
            pq_with_outliers(&MillionConfig::three_bit(head_dim)),
        ),
        (
            "MILLION-4b",
            pq_error(&set.million4.key[0], &keys, 0.0),
            pq_with_outliers(&MillionConfig::four_bit(head_dim)),
        ),
    ];
    cases
        .into_iter()
        .map(|(method, plain, isolated)| KeyErrorRow {
            method: method.into(),
            error_plain: plain,
            error_with_1pct: isolated,
            sensitivity_pct: (plain - isolated) / plain.max(f64::MIN_POSITIVE) * 100.0,
        })
        .collect()
}

fn main() {
    let llama = ModelConfig::llama2_7b_sim();
    let mut report = Report {
        rows: Vec::new(),
        key_error: Vec::new(),
    };

    for config in [
        ModelConfig::gpt2_xl_sim(),
        llama.clone(),
        ModelConfig::mpt_7b_sim(),
    ] {
        let model = Transformer::new(config.clone(), MODEL_SEED);
        let stream = wikitext_stream(&config, CALIBRATION_TOKENS + SCORED_TOKENS);
        let (calibration, scored) = stream.split_at(CALIBRATION_TOKENS);
        let set = model_methods(&model, calibration);
        let mut wikitext_methods = set.methods.clone();
        if config.name == llama.name {
            wikitext_methods.extend(sweep_methods(&model, calibration));
            report.key_error = key_error_rows(&model, &set, calibration, scored);
        }
        report.rows.extend(quality_rows(
            &model,
            "wikitext-2",
            scored,
            &wikitext_methods,
        ));
        let ptb = ptb_stream(&config, SCORED_TOKENS);
        report
            .rows
            .extend(quality_rows(&model, "ptb", &ptb, &set.methods));
    }

    print_table(
        "Table II + footnote-2 sweep — KL and ppl against the fp16 cache",
        &["model", "corpus", "method", "B/token", "KL vs fp16", "ppl"],
        &report
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.corpus.clone(),
                    r.method.clone(),
                    format!("{:.0}", r.bytes_per_token),
                    format!("{:.5}", r.kl_vs_fp16),
                    format!("{:.3}", r.ppl),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        &format!(
            "Table III(b) — {} layer-0 key error with / without 1% outliers",
            llama.name
        ),
        &["method", "error plain", "error +1% outliers", "sensitivity"],
        &report
            .key_error
            .iter()
            .map(|r| {
                vec![
                    r.method.clone(),
                    format!("{:.5}", r.error_plain),
                    format!("{:.5}", r.error_with_1pct),
                    format!("{:+.2}%", r.sensitivity_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json("quality", &report);
    println!(
        "\nExpected shape (paper): MILLION stays within a fraction of a percent of the fp16\n\
         baseline at 3 and 4 bits, and its key error barely moves when 1% of entries are\n\
         isolated, while KVQuant's drops by 26-53%; accuracy improves with bits per\n\
         channel.\n\
         Held out, with 256 calibration tokens, the PQ rows of these sims fall short of\n\
         that (ROADMAP item 1)."
    );
}
