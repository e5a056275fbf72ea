//! Shared plumbing for the experiment harnesses in `src/bin/`.
//!
//! Every binary regenerates the table or figure of the paper it is named
//! after and prints it as an aligned text table; machine-readable JSON is written next to it under
//! `target/experiments/` so results can be diffed between runs.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use million::{MillionConfig, TrainedCodebooks};
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use million_model::{CacheSpec, ModelConfig, Transformer};
use serde::Serialize;

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

/// Builds a deterministic model for one of the Table I presets.
pub fn build_model(config: &ModelConfig, seed: u64) -> Transformer {
    Transformer::new(config.clone(), seed)
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
        let model = build_model(&config, 1);
        let stream = wikitext_stream(&config, 64);
        let engine_cfg = MillionConfig::four_bit(config.head_dim());
        let (codebooks, spec) = trained_million_spec(&model, &engine_cfg, &stream);
        assert_eq!(codebooks.n_layers(), config.n_layers);
        assert_eq!(spec.label(), "million");
    }
}
