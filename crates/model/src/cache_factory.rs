//! Construction of per-layer KV caches from a declarative specification.

use std::sync::Arc;

use million_kvcache::{
    FullPrecisionCache, KiviCache, KiviConfig, KvCache, KvQuantCache, KvQuantConfig, PqCacheConfig,
    PqKvCache,
};
use million_quant::pq::PqCodebook;

use crate::config::ModelConfig;

/// Per-layer PQ codebooks plus MILLION-cache options.
#[derive(Debug, Clone)]
pub struct PqSpec {
    /// One key codebook per layer (dimension = `head_dim`).
    pub key_codebooks: Vec<Arc<PqCodebook>>,
    /// One value codebook per layer (dimension = `head_dim`).
    pub value_codebooks: Vec<Arc<PqCodebook>>,
    /// Number of most recent tokens kept dense (0 = the paper's stress mode).
    /// Appends beyond it quantize eagerly.
    pub residual_len: usize,
}

/// Which KV-cache backend to build for every layer of a model.
#[derive(Debug, Clone)]
pub enum CacheSpec {
    /// fp16-equivalent full-precision baseline.
    Full,
    /// MILLION product-quantized cache.
    Pq(PqSpec),
    /// KIVI group-wise integer quantization baseline.
    Kivi(KiviConfig),
    /// KVQuant non-uniform quantization baseline.
    KvQuant(KvQuantConfig),
}

impl CacheSpec {
    /// Short name used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            CacheSpec::Full => "fp16",
            CacheSpec::Pq(_) => "million",
            CacheSpec::Kivi(_) => "kivi",
            CacheSpec::KvQuant(_) => "kvquant",
        }
    }
}

/// Builds one cache per layer according to `spec`.
///
/// # Panics
///
/// Panics if a PQ spec does not provide exactly one codebook pair per layer.
pub fn build_caches(config: &ModelConfig, spec: &CacheSpec) -> Vec<Box<dyn KvCache>> {
    let layout = million_kvcache::CacheLayout::new(config.n_kv_heads, config.head_dim());
    (0..config.n_layers)
        .map(|l| -> Box<dyn KvCache> {
            match spec {
                CacheSpec::Full => Box::new(FullPrecisionCache::new(layout)),
                CacheSpec::Kivi(cfg) => Box::new(KiviCache::new(layout, *cfg)),
                CacheSpec::KvQuant(cfg) => Box::new(KvQuantCache::new(layout, *cfg)),
                CacheSpec::Pq(pq) => {
                    assert_eq!(
                        pq.key_codebooks.len(),
                        config.n_layers,
                        "one key codebook per layer required"
                    );
                    assert_eq!(
                        pq.value_codebooks.len(),
                        config.n_layers,
                        "one value codebook per layer required"
                    );
                    let cache_cfg = PqCacheConfig::new(
                        pq.key_codebooks[l].clone(),
                        pq.value_codebooks[l].clone(),
                        pq.residual_len,
                    )
                    .with_layer(l);
                    Box::new(PqKvCache::new(layout, cache_cfg))
                }
            }
        })
        .collect()
}

/// Total KV memory across all layers of a cache set.
pub fn total_cache_bytes<C: KvCache>(caches: &[C]) -> usize {
    caches.iter().map(|c| c.memory_bytes()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use million_quant::pq::{PqConfig, PqTrainOptions};
    use million_tensor::init::{normal_matrix, seeded_rng};

    fn pq_spec(config: &ModelConfig) -> PqSpec {
        let mut rng = seeded_rng(0);
        let samples = normal_matrix(&mut rng, 256, config.head_dim(), 0.0, 1.0);
        let pq_config = PqConfig::new(4, 4).unwrap();
        let cb = Arc::new(
            PqCodebook::train(&pq_config, &samples, &PqTrainOptions::default(), 0).unwrap(),
        );
        PqSpec {
            key_codebooks: vec![cb.clone(); config.n_layers],
            value_codebooks: vec![cb; config.n_layers],
            residual_len: 0,
        }
    }

    #[test]
    fn builds_one_cache_per_layer_for_every_spec() {
        let config = ModelConfig::tiny_for_tests();
        for spec in [
            CacheSpec::Full,
            CacheSpec::Kivi(KiviConfig::default()),
            CacheSpec::KvQuant(KvQuantConfig::default()),
            CacheSpec::Pq(pq_spec(&config)),
        ] {
            let caches = build_caches(&config, &spec);
            assert_eq!(caches.len(), config.n_layers, "{}", spec.label());
            assert!(caches.iter().all(|c| c.is_empty()));
        }
    }

    #[test]
    fn labels_are_distinct() {
        let config = ModelConfig::tiny_for_tests();
        let labels = [
            CacheSpec::Full.label(),
            CacheSpec::Kivi(KiviConfig::default()).label(),
            CacheSpec::KvQuant(KvQuantConfig::default()).label(),
            CacheSpec::Pq(pq_spec(&config)).label(),
        ];
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn total_cache_bytes_sums_layers() {
        let config = ModelConfig::tiny_for_tests();
        let mut caches = build_caches(&config, &CacheSpec::Full);
        assert_eq!(total_cache_bytes(&caches), 0);
        let keys = normal_matrix(&mut seeded_rng(1), 4, config.kv_width(), 0.0, 1.0);
        caches[0].append(&keys, &keys);
        caches[1].append(&keys, &keys);
        assert_eq!(total_cache_bytes(&caches), 2 * caches[0].memory_bytes());
    }

    #[test]
    #[should_panic(expected = "one key codebook per layer")]
    fn pq_spec_with_wrong_layer_count_panics() {
        let config = ModelConfig::tiny_for_tests();
        let mut spec = pq_spec(&config);
        spec.key_codebooks.pop();
        let _ = build_caches(&config, &CacheSpec::Pq(spec));
    }
}
