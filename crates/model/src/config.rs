//! Model configurations and the scaled-down presets mirroring Table I of the
//! paper.

use serde::{Deserialize, Serialize};

/// Positional-embedding scheme, the axis along which Table I of the paper
/// varies its models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Positional {
    /// Rotary position embeddings (Llama-2, Longchat, Yarn-Llama).
    Rope {
        /// RoPE base frequency (10 000 for Llama-2).
        theta: f32,
        /// Linear position interpolation factor used by long-context variants
        /// (1.0 = vanilla RoPE).
        position_scale: f32,
    },
    /// Attention with linear biases (MPT-7B).
    Alibi,
    /// Learned absolute position embeddings (GPT2-xl).
    Absolute,
}

/// Normalisation layer family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NormKind {
    /// RMSNorm (Llama family).
    RmsNorm,
    /// LayerNorm (GPT-2 / MPT family).
    LayerNorm,
}

/// Static architecture description of a decoder-only transformer.
///
/// The presets below reproduce the *shape* of the models in Table I of the
/// paper (positional embedding, norm, context length) at a width that runs on
/// a CPU. The weights are synthetic, so the channel-wise key outliers the
/// paper measures on real checkpoints are planted instead
/// ([`ModelConfig::outlier_channels`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name used in experiment reports.
    pub name: String,
    /// Token vocabulary size.
    pub vocab_size: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Number of query heads.
    pub n_heads: usize,
    /// Number of key/value heads (equal to `n_heads` for MHA, fewer for GQA).
    pub n_kv_heads: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Maximum supported sequence length.
    pub max_seq_len: usize,
    /// Positional-embedding scheme.
    pub positional: Positional,
    /// Normalisation layer family.
    pub norm: NormKind,
    /// Number of key-projection channels per layer that receive an outlier
    /// magnitude boost, reproducing the channel-wise outliers of Fig. 2/3.
    pub outlier_channels: usize,
    /// Magnitude multiplier range for the outlier channels.
    pub outlier_scale: (f32, f32),
}

impl ModelConfig {
    /// Channels per attention head.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn head_dim(&self) -> usize {
        assert_eq!(
            self.d_model % self.n_heads,
            0,
            "d_model must be divisible by n_heads"
        );
        self.d_model / self.n_heads
    }

    /// Width of the flattened per-layer key/value matrices.
    pub fn kv_width(&self) -> usize {
        self.n_kv_heads * self.head_dim()
    }

    /// Number of query heads served by each KV head.
    pub fn group_size(&self) -> usize {
        self.n_heads / self.n_kv_heads.max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!(
                "d_model {} not divisible by n_heads {}",
                self.d_model, self.n_heads
            ));
        }
        if !self.n_heads.is_multiple_of(self.n_kv_heads.max(1)) {
            return Err(format!(
                "n_heads {} not divisible by n_kv_heads {}",
                self.n_heads, self.n_kv_heads
            ));
        }
        if self.n_kv_heads == 0 || self.n_layers == 0 || self.vocab_size == 0 {
            return Err("n_kv_heads, n_layers and vocab_size must be nonzero".into());
        }
        if !self.head_dim().is_multiple_of(2) {
            if let Positional::Rope { .. } = self.positional {
                return Err("RoPE requires an even head_dim".into());
            }
        }
        Ok(())
    }

    /// Scaled-down analogue of GPT2-xl (absolute positions, LayerNorm,
    /// 1 K context) from Table I.
    pub fn gpt2_xl_sim() -> Self {
        Self {
            name: "gpt2-xl-sim".into(),
            vocab_size: 2048,
            d_model: 256,
            n_layers: 4,
            n_heads: 8,
            n_kv_heads: 8,
            d_ff: 1024,
            max_seq_len: 1024,
            positional: Positional::Absolute,
            norm: NormKind::LayerNorm,
            outlier_channels: 6,
            outlier_scale: (4.0, 18.0),
        }
    }

    /// Scaled-down analogue of LLaMA-2-7B (RoPE, RMSNorm, 4 K context).
    pub fn llama2_7b_sim() -> Self {
        Self {
            name: "llama-2-7b-sim".into(),
            vocab_size: 2048,
            d_model: 256,
            n_layers: 4,
            n_heads: 8,
            n_kv_heads: 8,
            d_ff: 1024,
            max_seq_len: 4096,
            positional: Positional::Rope {
                theta: 10_000.0,
                position_scale: 1.0,
            },
            norm: NormKind::RmsNorm,
            outlier_channels: 6,
            outlier_scale: (5.0, 25.0),
        }
    }

    /// Scaled-down analogue of MPT-7B (ALiBi, LayerNorm, 2 K context).
    pub fn mpt_7b_sim() -> Self {
        Self {
            name: "mpt-7b-sim".into(),
            vocab_size: 2048,
            d_model: 256,
            n_layers: 4,
            n_heads: 8,
            n_kv_heads: 8,
            d_ff: 1024,
            max_seq_len: 2048,
            positional: Positional::Alibi,
            norm: NormKind::LayerNorm,
            outlier_channels: 5,
            outlier_scale: (4.0, 20.0),
        }
    }

    /// Scaled-down analogue of Longchat-7B (position-interpolated RoPE,
    /// 32 K context).
    pub fn longchat_7b_sim() -> Self {
        Self {
            name: "longchat-7b-sim".into(),
            vocab_size: 2048,
            d_model: 256,
            n_layers: 4,
            n_heads: 8,
            n_kv_heads: 8,
            d_ff: 1024,
            max_seq_len: 32_768,
            positional: Positional::Rope {
                theta: 10_000.0,
                position_scale: 8.0,
            },
            norm: NormKind::RmsNorm,
            outlier_channels: 6,
            outlier_scale: (5.0, 25.0),
        }
    }

    /// Scaled-down analogue of Yarn-Llama-2-7B (128 K context RoPE scaling).
    pub fn yarn_llama2_sim() -> Self {
        Self {
            name: "yarn-llama-2-7b-sim".into(),
            vocab_size: 2048,
            d_model: 256,
            n_layers: 4,
            n_heads: 8,
            n_kv_heads: 8,
            d_ff: 1024,
            max_seq_len: 131_072,
            positional: Positional::Rope {
                theta: 10_000.0,
                position_scale: 32.0,
            },
            norm: NormKind::RmsNorm,
            outlier_channels: 6,
            outlier_scale: (5.0, 25.0),
        }
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn tiny_for_tests() -> Self {
        Self {
            name: "tiny-test".into(),
            vocab_size: 128,
            d_model: 32,
            n_layers: 2,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 64,
            max_seq_len: 256,
            positional: Positional::Rope {
                theta: 10_000.0,
                position_scale: 1.0,
            },
            norm: NormKind::RmsNorm,
            outlier_channels: 3,
            outlier_scale: (4.0, 12.0),
        }
    }

    /// A tiny GQA configuration (fewer KV heads than query heads) for tests.
    pub fn tiny_gqa_for_tests() -> Self {
        Self {
            name: "tiny-gqa-test".into(),
            n_kv_heads: 1,
            ..Self::tiny_for_tests()
        }
    }

    /// Every Table I preset, in the order the paper lists them.
    pub fn table1_presets() -> Vec<ModelConfig> {
        vec![
            Self::gpt2_xl_sim(),
            Self::llama2_7b_sim(),
            Self::mpt_7b_sim(),
            Self::longchat_7b_sim(),
            Self::yarn_llama2_sim(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for preset in ModelConfig::table1_presets() {
            preset
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", preset.name));
        }
        ModelConfig::tiny_for_tests().validate().unwrap();
        ModelConfig::tiny_gqa_for_tests().validate().unwrap();
    }

    #[test]
    fn head_dim_and_kv_width() {
        let cfg = ModelConfig::llama2_7b_sim();
        assert_eq!(cfg.head_dim(), 32);
        assert_eq!(cfg.kv_width(), 256);
        let gqa = ModelConfig::tiny_gqa_for_tests();
        assert_eq!(gqa.kv_width(), 16);
        assert_eq!(gqa.group_size(), 2);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_heads = 3;
        assert!(cfg.validate().is_err());

        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_kv_heads = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.d_model = 30;
        cfg.n_heads = 2; // head_dim 15, odd, with RoPE
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn presets_cover_all_positional_schemes() {
        let presets = ModelConfig::table1_presets();
        assert!(presets
            .iter()
            .any(|p| matches!(p.positional, Positional::Absolute)));
        assert!(presets
            .iter()
            .any(|p| matches!(p.positional, Positional::Alibi)));
        assert!(presets
            .iter()
            .any(|p| matches!(p.positional, Positional::Rope { position_scale, .. } if position_scale > 1.0)));
    }

    #[test]
    fn context_lengths_match_table1_ordering() {
        // GPT2 1K < MPT 2K < Llama 4K < Longchat 32K < Yarn 128K
        let p = ModelConfig::table1_presets();
        assert!(p[0].max_seq_len < p[2].max_seq_len);
        assert!(p[2].max_seq_len < p[1].max_seq_len);
        assert!(p[1].max_seq_len < p[3].max_seq_len);
        assert!(p[3].max_seq_len < p[4].max_seq_len);
    }
}
