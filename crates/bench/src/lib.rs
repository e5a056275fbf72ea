//! Shared plumbing for the experiment harnesses in `src/bin/`.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` for the experiment index) and prints it as an aligned text
//! table; machine-readable JSON is written next to it under
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

/// Measurement-only reference kernels.
///
/// The production decode path now runs the fused packed kernel
/// ([`million_quant::pq::ScoreLut::fused_attend`]); these functions keep its
/// two predecessors measurable — the seed's two-pass kernel over unpacked
/// `u16` codes (per-call allocations and all) and the two-pass variant over
/// packed codes with reused scratch — so `benches/pq_kernels.rs` and the
/// `bench_decode_baseline` harness can track the win of each step.
pub mod kernels {
    use million_quant::pq::{PqCodebook, PqCodes, ScoreLut, ValueAccumulator};

    /// Unpacks a code block into the one-`u16`-per-code row representation
    /// the bit-packed kernel layout replaced (4x the memory at 4 bits).
    pub fn unpack_rows(codes: &PqCodes) -> Vec<Vec<u16>> {
        let m = codes.config().m;
        (0..codes.len())
            .map(|i| {
                let mut row = vec![0u16; m];
                codes.read_into(i, &mut row);
                row
            })
            .collect()
    }

    /// The seed implementation of quantized decode attention: score every
    /// unpacked row through the LUT into a freshly allocated score vector,
    /// take the max, then make a second pass to accumulate value-centroid
    /// mass into a freshly allocated accumulator. Returns the normalised
    /// head output (also freshly allocated, as the seed did).
    pub fn two_pass_unpacked(
        lut: &ScoreLut,
        key_rows: &[Vec<u16>],
        value_rows: &[Vec<u16>],
        value_codebook: &PqCodebook,
        scale: f32,
    ) -> Vec<f32> {
        let mut scores = Vec::with_capacity(key_rows.len());
        for row in key_rows {
            scores.push(lut.score_codes(row) * scale);
        }
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut acc = ValueAccumulator::for_codebook(value_codebook);
        let mut sum = 0.0f32;
        for (row, &s) in value_rows.iter().zip(scores.iter()) {
            let w = (s - max).exp();
            sum += w;
            acc.add(w, row);
        }
        let mut out = vec![0.0f32; value_codebook.dim()];
        acc.finish_into(value_codebook, &mut out);
        if sum > 0.0 {
            out.iter_mut().for_each(|v| *v /= sum);
        }
        out
    }

    /// Two passes over the *packed* codes with caller-owned scratch — the
    /// intermediate step between the seed kernel and the fused one,
    /// isolating the packed-layout win from the fusion win.
    #[allow(clippy::too_many_arguments)]
    pub fn two_pass_packed(
        lut: &ScoreLut,
        key_codes: &PqCodes,
        value_codes: &PqCodes,
        value_codebook: &PqCodebook,
        scale: f32,
        scores: &mut Vec<f32>,
        acc: &mut ValueAccumulator,
        out: &mut [f32],
    ) {
        let n = key_codes.len();
        let scores = million_kvcache::grown(scores, n);
        lut.scores_into(key_codes, scores);
        let mut max = f32::NEG_INFINITY;
        for s in scores.iter_mut() {
            *s *= scale;
            max = max.max(*s);
        }
        acc.ensure_shape(value_codes.config().m, value_codes.config().codebook_size());
        acc.reset();
        let mut sum = 0.0f32;
        for (t, &s) in scores.iter().enumerate() {
            let w = (s - max).exp();
            sum += w;
            acc.add_indexed(w, value_codes, t);
        }
        acc.finish_into(value_codebook, out);
        if sum > 0.0 {
            out.iter_mut().for_each(|v| *v /= sum);
        }
    }

    /// The production fused packed kernel, normalised for comparison with
    /// the references above.
    pub fn fused_packed(
        lut: &ScoreLut,
        key_codes: &PqCodes,
        value_codes: &PqCodes,
        value_codebook: &PqCodebook,
        scale: f32,
        acc: &mut ValueAccumulator,
        out: &mut [f32],
    ) {
        let (_max, sum) = lut.fused_attend(key_codes, value_codes, scale, None, acc);
        acc.finish_into(value_codebook, out);
        if sum > 0.0 {
            out.iter_mut().for_each(|v| *v /= sum);
        }
    }
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
    fn reference_kernels_agree_with_each_other() {
        use million_quant::pq::{PqCodebook, PqConfig, PqTrainOptions, ValueAccumulator};
        use million_tensor::init::{normal_matrix, seeded_rng};

        let mut rng = seeded_rng(9);
        let samples = normal_matrix(&mut rng, 400, 32, 0.0, 1.0);
        let config = PqConfig::new(8, 4).unwrap();
        let key_cb = PqCodebook::train(&config, &samples, &PqTrainOptions::default(), 0).unwrap();
        let value_cb = PqCodebook::train(&config, &samples, &PqTrainOptions::default(), 1).unwrap();
        let tokens = normal_matrix(&mut rng, 64, 32, 0.0, 1.0);
        let key_codes = key_cb.encode_matrix(&tokens);
        let value_codes = value_cb.encode_matrix(&tokens);
        let query: Vec<f32> = (0..32).map(|i| (i as f32 * 0.2).sin()).collect();
        let lut = key_cb.score_lut(&query);

        let unpacked = kernels::two_pass_unpacked(
            &lut,
            &kernels::unpack_rows(&key_codes),
            &kernels::unpack_rows(&value_codes),
            &value_cb,
            0.25,
        );
        let mut scores = Vec::new();
        let mut acc = ValueAccumulator::new(1, 1);
        let mut packed = vec![0.0f32; 32];
        kernels::two_pass_packed(
            &lut,
            &key_codes,
            &value_codes,
            &value_cb,
            0.25,
            &mut scores,
            &mut acc,
            &mut packed,
        );
        let mut fused = vec![0.0f32; 32];
        kernels::fused_packed(
            &lut,
            &key_codes,
            &value_codes,
            &value_cb,
            0.25,
            &mut acc,
            &mut fused,
        );

        for ((u, p), f) in unpacked.iter().zip(packed.iter()).zip(fused.iter()) {
            assert_eq!(u, p, "packed two-pass must be bit-identical to unpacked");
            assert!((p - f).abs() < 1e-5, "fused {f} vs two-pass {p}");
        }
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
