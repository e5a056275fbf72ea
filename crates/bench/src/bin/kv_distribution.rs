//! Figs. 2 and 3 from one capture: the magnitude distribution of the key and
//! value caches, and their channel-wise standard deviation.
//!
//! Captures the KV produced by two Table I presets on a Wikitext-2-like
//! stream and reports, per layer, the global range and how many channels'
//! standard deviation dominates (Fig. 2), then the anisotropy ratio and the
//! largest channels of the first and last layer (Fig. 3) — key outliers
//! concentrate in a few channels while values are isotropic.
//!
//! Run with `cargo run --release -p million_bench --bin kv_distribution`.

use million_bench::{print_table, wikitext_stream, write_json};
use million_eval::analysis::{ChannelStats, KvDistributionReport};
use million_model::{build_caches, CacheSpec, KvCapture, ModelConfig, Transformer};
use serde::Serialize;

const MODEL_SEED: u64 = 7;
const TOKENS: usize = 384;

#[derive(Serialize)]
struct ChannelStdRow {
    model: String,
    layer: usize,
    key_anisotropy: f32,
    value_anisotropy: f32,
}

#[derive(Serialize)]
struct Report {
    distribution: Vec<KvDistributionReport>,
    channel_std: Vec<ChannelStdRow>,
}

fn top_channels(stats: &ChannelStats, n: usize) -> String {
    let mut indexed: Vec<(usize, f32)> = stats.std.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    indexed
        .iter()
        .take(n)
        .map(|(c, s)| format!("ch{c}:{s:.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let mut report = Report {
        distribution: Vec::new(),
        channel_std: Vec::new(),
    };
    for config in [ModelConfig::llama2_7b_sim(), ModelConfig::mpt_7b_sim()] {
        let model = Transformer::new(config.clone(), MODEL_SEED);
        let stream = wikitext_stream(&config, TOKENS);
        let mut caches = build_caches(&config, &CacheSpec::Full);
        let mut capture = KvCapture::new(config.n_layers, config.head_dim(), TOKENS);
        let _ = model.prefill(&stream, &mut caches, Some(&mut capture));

        let keys: Vec<_> = (0..config.n_layers)
            .map(|l| capture.keys(l).clone())
            .collect();
        let values: Vec<_> = (0..config.n_layers)
            .map(|l| capture.values(l).clone())
            .collect();
        let distribution = KvDistributionReport::from_captures(config.name.clone(), &keys, &values);
        let rows: Vec<_> = distribution
            .key_stats
            .iter()
            .zip(&distribution.value_stats)
            .enumerate()
            .map(|(layer, (k, v))| {
                vec![
                    format!("layer {layer}"),
                    format!("[{:.2}, {:.2}]", k.global_min, k.global_max),
                    format!("{}", k.std_outlier_channels(3.0)),
                    format!("[{:.2}, {:.2}]", v.global_min, v.global_max),
                    format!("{}", v.std_outlier_channels(3.0)),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 2 — KV magnitude distribution ({})", config.name),
            &[
                "layer",
                "key range",
                "key outlier channels",
                "value range",
                "value outlier channels",
            ],
            &rows,
        );
        println!(
            "keys more anisotropic than values: {}",
            distribution.keys_more_anisotropic_than_values()
        );
        report.distribution.push(distribution);

        let mut rows = Vec::new();
        for layer in [0, config.n_layers - 1] {
            let key_stats = ChannelStats::compute(capture.keys(layer));
            let value_stats = ChannelStats::compute(capture.values(layer));
            for (tensor, stats) in [("key", &key_stats), ("value", &value_stats)] {
                rows.push(vec![
                    format!("layer {layer} {tensor}"),
                    format!("{:.2}", stats.std_anisotropy()),
                    format!("{}", stats.std_outlier_channels(3.0)),
                    top_channels(stats, 4),
                ]);
            }
            report.channel_std.push(ChannelStdRow {
                model: config.name.clone(),
                layer,
                key_anisotropy: key_stats.std_anisotropy(),
                value_anisotropy: value_stats.std_anisotropy(),
            });
        }
        print_table(
            &format!("Fig. 3 — channel-wise std ({})", config.name),
            &[
                "tensor",
                "max/median std",
                "outlier channels (>3x)",
                "largest channels",
            ],
            &rows,
        );
    }
    write_json("kv_distribution", &report);
    println!(
        "\nExpected shape (paper): key std is dominated by a handful of channels,\nvalue std is flat; the anisotropy ratios above should be much larger for keys."
    );
}
