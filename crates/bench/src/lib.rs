//! Shared plumbing for the experiment harnesses in `src/bin/`: the quality
//! row builder behind the `quality` bin, the corpus streams, and table and
//! JSON output.
//!
//! Every binary prints aligned text tables; machine-readable JSON is written
//! next to them under `target/experiments/` so results can be diffed between
//! runs.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use million::{MillionConfig, TrainedCodebooks};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_eval::perplexity::{evaluate_perplexity_against, teacher_log_probs};
use million_kvcache::{KiviConfig, KvQuantConfig};
use million_model::{CacheSpec, ModelConfig, Transformer};
use million_quant::pq::PqConfig;
use serde::Serialize;

/// Stream tokens fed before the first scored position.
const SEED_LEN: usize = 16;

/// Seed of the KVQuant baseline's non-uniform level fitting.
pub const KVQUANT_SEED: u64 = 3;

/// Prints an aligned text table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{:width$}  ",
                cell,
                width = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Writes a serialisable result next to the printed table, under
/// `target/experiments/<name>.json`. Failures are reported but not fatal —
/// the printed table is the primary artefact.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialise {name}: {e}"),
    }
}

/// A Wikitext-2-like calibration/evaluation stream for a model.
pub fn wikitext_stream(config: &ModelConfig, len: usize) -> Vec<u32> {
    SyntheticCorpus::new(CorpusConfig::wikitext2_like(config.vocab_size)).generate(len)
}

/// A PTB-like evaluation stream for a model.
pub fn ptb_stream(config: &ModelConfig, len: usize) -> Vec<u32> {
    SyntheticCorpus::new(CorpusConfig::ptb_like(config.vocab_size)).generate(len)
}

/// Trains MILLION codebooks for a model on a calibration stream and returns
/// both the codebooks and the cache spec for the evaluation harnesses.
///
/// # Panics
///
/// Panics if codebook training fails (the harness presets are always valid).
pub fn trained_million_spec(
    model: &Transformer,
    engine_config: &MillionConfig,
    calibration: &[u32],
) -> (TrainedCodebooks, CacheSpec) {
    let codebooks = million::train_codebooks(model, calibration, engine_config)
        .expect("codebook training with harness presets");
    let spec = CacheSpec::Pq(codebooks.to_pq_spec(engine_config.residual_len, true));
    (codebooks, spec)
}

/// One cache the quality table scores.
#[derive(Clone)]
pub struct Method {
    /// Row label: the method, its bits, and how its levels are fitted.
    pub label: String,
    /// The cache the model runs on.
    pub spec: CacheSpec,
}

/// The caches one model's quality rows compare. The PQ codebooks are trained
/// on the model's calibration slice, once, and kept for the tables that
/// reuse them.
pub struct ModelMethods {
    /// MILLION-3b codebooks: `M = head_dim / 4`, 12-bit codes.
    pub million3: TrainedCodebooks,
    /// MILLION-4b codebooks: `M = head_dim / 2`, 8-bit codes.
    pub million4: TrainedCodebooks,
    /// fp16, KIVI-4b, KVQuant-3b/4b with and without 1 % outliers,
    /// MILLION-3b/4b, and the scalar codebooks at MILLION-3b/4b's bytes, in
    /// table order.
    pub methods: Vec<Method>,
}

fn kvquant(bits: u8, outlier_fraction: f64) -> Method {
    let outliers = if outlier_fraction > 0.0 { "+1%" } else { "" };
    Method {
        label: format!("KVQuant-{bits}b{outliers} (online levels)"),
        spec: CacheSpec::KvQuant(KvQuantConfig {
            bits,
            outlier_fraction,
            requant_block: 64,
            seed: KVQUANT_SEED,
        }),
    }
}

fn pq_label(name: &str, pq: &PqConfig) -> String {
    format!("{name} ({}, {})", pq.m, pq.nbits)
}

/// Trains MILLION-3b and -4b on `calibration` and lists every method the
/// quality table scores on each corpus. The scalar rows are one channel per
/// subspace at 3 and 4 bits: KVQuant's offline per-channel non-uniform
/// datatype (without pre-RoPE keys or sparse outliers), trained the same
/// way on the same tokens, at exactly MILLION-3b and -4b's bytes.
pub fn model_methods(model: &Transformer, calibration: &[u32]) -> ModelMethods {
    let head_dim = model.config().head_dim();
    let three = MillionConfig::three_bit(head_dim);
    let four = MillionConfig::four_bit(head_dim);
    let (million3, spec3) = trained_million_spec(model, &three, calibration);
    let (million4, spec4) = trained_million_spec(model, &four, calibration);
    let scalar = |bits: u8| Method {
        label: format!("scalar NUQ-{bits}b (offline, per-channel)"),
        spec: trained_million_spec(
            model,
            &MillionConfig::new(PqConfig::new(head_dim, bits).expect("valid scalar geometry")),
            calibration,
        )
        .1,
    };
    let methods = vec![
        Method {
            label: "fp16".into(),
            spec: CacheSpec::Full,
        },
        Method {
            label: "KIVI-4b (online groups)".into(),
            spec: CacheSpec::Kivi(KiviConfig::default()),
        },
        kvquant(3, 0.0),
        kvquant(3, 0.01),
        Method {
            label: pq_label("MILLION-3b", &three.pq),
            spec: spec3,
        },
        scalar(3),
        kvquant(4, 0.0),
        kvquant(4, 0.01),
        Method {
            label: pq_label("MILLION-4b", &four.pq),
            spec: spec4,
        },
        scalar(4),
    ];
    ModelMethods {
        million3,
        million4,
        methods,
    }
}

/// The footnote-2 `(M, nbits)` points other than MILLION-3b and -4b, each
/// trained on `calibration`.
pub fn sweep_methods(model: &Transformer, calibration: &[u32]) -> Vec<Method> {
    let d = model.config().head_dim();
    [
        (d / 8, 8),
        (d / 8, 12),
        (d / 4, 6),
        (d / 4, 8),
        (d / 2, 4),
        (d / 2, 6),
    ]
    .into_iter()
    .filter_map(|(m, nbits)| PqConfig::new(m, nbits).ok())
    .map(|pq| Method {
        label: pq_label("PQ", &pq),
        spec: trained_million_spec(model, &MillionConfig::new(pq), calibration).1,
    })
    .collect()
}

/// One row of the quality table.
#[derive(Debug, Clone, Serialize)]
pub struct QualityRow {
    /// Model preset name.
    pub model: String,
    /// Corpus the scored stream comes from.
    pub corpus: String,
    /// Method label.
    pub method: String,
    /// KV-cache bytes per cached token, all layers: the stream's last token
    /// is scored but never fed, so `len - 1` tokens are cached.
    pub bytes_per_token: f64,
    /// Mean KL (nats) of the method's predictions from the fp16 teacher's.
    pub kl_vs_fp16: f64,
    /// `exp(cross-entropy against the fp16 teacher)`.
    pub ppl: f64,
}

/// Scores every method on `stream` against the model's fp16 teacher, which
/// is computed once. A KVQuant label says how many cached tokens it still
/// holds dense: it codes whole `requant_block`s only.
pub fn quality_rows(
    model: &Transformer,
    corpus: &str,
    stream: &[u32],
    methods: &[Method],
) -> Vec<QualityRow> {
    let teacher = teacher_log_probs(model, stream, SEED_LEN);
    let cached_tokens = stream.len() - 1;
    methods
        .iter()
        .map(|method| {
            let report =
                evaluate_perplexity_against(model, &method.spec, stream, SEED_LEN, &teacher);
            let label = match &method.spec {
                CacheSpec::KvQuant(config) => format!(
                    "{} [{} of {cached_tokens} tokens dense]",
                    method.label,
                    cached_tokens % config.requant_block
                ),
                _ => method.label.clone(),
            };
            QualityRow {
                model: model.config().name.clone(),
                corpus: corpus.to_string(),
                method: label,
                bytes_per_token: report.kv_bytes as f64 / cached_tokens as f64,
                kl_vs_fp16: report.kl_vs_fp16,
                ppl: report.ppl,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_in_vocab() {
        let config = ModelConfig::tiny_for_tests();
        let a = wikitext_stream(&config, 64);
        let b = wikitext_stream(&config, 64);
        assert_eq!(a, b);
        assert!(ptb_stream(&config, 64)
            .iter()
            .all(|&t| (t as usize) < config.vocab_size));
    }

    #[test]
    fn trained_spec_covers_all_layers() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 1);
        let stream = wikitext_stream(&config, 64);
        let engine_cfg = MillionConfig::four_bit(config.head_dim());
        let (codebooks, spec) = trained_million_spec(&model, &engine_cfg, &stream);
        assert_eq!(codebooks.n_layers(), config.n_layers);
        assert_eq!(spec.label(), "million");
    }

    #[test]
    fn quality_rows_score_held_out_tokens_at_their_cache_bytes() {
        let config = ModelConfig::tiny_for_tests();
        let model = Transformer::new(config.clone(), 21);
        // 96 scored tokens cache 95: KVQuant quantizes in 64-token blocks, so
        // a shorter slice would leave it dense and its KL at 0.
        let stream = wikitext_stream(&config, 96 + 96);
        let (calibration, scored) = stream.split_at(96);
        let set = model_methods(&model, calibration);
        let rows = quality_rows(&model, "wikitext-2", scored, &set.methods);

        assert_eq!(rows.len(), set.methods.len());
        assert_eq!(rows[0].method, "fp16");
        assert_eq!(rows[0].kl_vs_fp16, 0.0);
        for row in &rows[1..] {
            assert!(
                row.ppl.is_finite() && row.kl_vs_fp16.is_finite() && row.kl_vs_fp16 > 1e-6,
                "{} reads KL {} on held-out tokens",
                row.method,
                row.kl_vs_fp16
            );
        }
        let bytes_per_token = |prefix: &str| {
            rows.iter()
                .find(|r| r.method.starts_with(prefix))
                .unwrap_or_else(|| panic!("{prefix} row"))
                .bytes_per_token
        };
        let code_bytes =
            config.n_layers * config.n_kv_heads * 2 * set.million4.key[0].bytes_per_vector();
        assert_eq!(bytes_per_token("MILLION-4b"), code_bytes as f64);
        // The scalar rows cost exactly MILLION's bytes at the same bits.
        assert_eq!(
            bytes_per_token("scalar NUQ-4b"),
            bytes_per_token("MILLION-4b")
        );
        assert_eq!(
            bytes_per_token("scalar NUQ-3b"),
            bytes_per_token("MILLION-3b")
        );
        // 95 cached tokens: KVQuant codes one 64-token block, holds 31 dense.
        let kvquant = rows
            .iter()
            .find(|r| r.method.starts_with("KVQuant-4b"))
            .expect("KVQuant-4b row");
        assert!(
            kvquant.method.ends_with("[31 of 95 tokens dense]"),
            "{}",
            kvquant.method
        );
    }
}
