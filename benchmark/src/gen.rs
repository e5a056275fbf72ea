//! Seeded workload generators. The engines receive only what is generated
//! here: the same seed gives the same request list (see [`digest`]), a
//! different seed a different one.
//!
//! The seed draws the **token contents**. The traffic *shape* — lengths, QoS
//! classes, arrival rounds — is drawn once from [`SHAPE_SEED`] and is the same
//! for every seed and every lap: a lap holds only a handful of requests, and
//! on so few a reshuffled schedule moves p95 TTFT by 2x (measured), more than
//! any change the benchmark exists to detect. A frozen shape is also what
//! makes a lap's round counts exact. Lengths are *stratified*: `n` draws take
//! one value from each of `n` equal slices of the distribution, so the list
//! covers the catalogued range evenly.

use million::QosClass;
use million_eval::corpus::{CorpusConfig, SyntheticCorpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the frozen traffic shape (see the module docs).
const SHAPE_SEED: u64 = 0x5E2F_E001;

/// One generated serving request, due on the engine's round clock.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Token budget; no stop tokens, so every request runs exactly this long.
    pub max_new_tokens: usize,
    /// Scheduling class.
    pub class: QosClass,
    /// The request is submitted once the engine has served this many rounds.
    pub due_round: u64,
}

/// Shape of a serving workload (`serve_mixed` or `serve_shared_prefix`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeShape {
    /// Requests with ordinary prompts.
    pub requests: usize,
    /// Ordinary prompt (or unique-suffix) length range, inclusive.
    pub prompt_tokens: (usize, usize),
    /// Whether prompt lengths are log-uniform (else uniform) over the range.
    pub log_uniform: bool,
    /// Output budget range, inclusive.
    pub output_tokens: (usize, usize),
    /// Extra long prompts injected mid-stream: `(count, prompt, output)`.
    pub long_prompts: (usize, usize, usize),
    /// Shared system prompts every ordinary prompt starts with:
    /// `(count, tokens)`; `(0, 0)` for unshared traffic.
    pub system_prompts: (usize, usize),
    /// Mean rounds between arrivals.
    pub rounds_per_arrival: f64,
}

/// A seeded token stream with Zipfian unigrams and Markov structure.
pub fn corpus_tokens(vocab_size: usize, seed: u64, len: usize) -> Vec<u32> {
    let mut config = CorpusConfig::wikitext2_like(vocab_size);
    config.seed = seed;
    SyntheticCorpus::new(config).generate(len)
}

/// `n` stratified draws from `[lo, hi]`, shuffled.
fn stratified(rng: &mut StdRng, n: usize, (lo, hi): (usize, usize), log: bool) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.gen_range(0.0..1.0)) / n as f64;
            let x = if log {
                lo as f64 * (hi as f64 / lo as f64).powf(u)
            } else {
                lo as f64 + u * (hi - lo + 1) as f64
            };
            (x as usize).clamp(lo, hi)
        })
        .collect();
    shuffle(rng, &mut out);
    out
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Writes `index` into the two tokens at `at`, so prompts that are otherwise
/// slices of one stream can never share a store block from `at` onwards.
fn stamp(prompt: &mut [u32], at: usize, index: usize, vocab_size: usize) {
    prompt[at] = (index % vocab_size) as u32;
    prompt[at + 1] = (index / vocab_size % vocab_size) as u32;
}

fn system_prompts(seed: u64, vocab_size: usize, shape: &ServeShape) -> Vec<Vec<u32>> {
    let (n_sys, sys_len) = shape.system_prompts;
    (0..n_sys)
        .map(|s| {
            corpus_tokens(
                vocab_size,
                seed.wrapping_mul(31).wrapping_add(s as u64),
                sys_len,
            )
        })
        .collect()
}

/// One short request per shared system prompt of `shape` (none for unshared
/// traffic): served once before the timed phase, they leave the system
/// prompts' blocks in the store.
pub fn system_prompt_leaders(seed: u64, vocab_size: usize, shape: &ServeShape) -> Vec<GenRequest> {
    let block = corpus_tokens(vocab_size, seed ^ 0x1EAD, 32);
    system_prompts(seed, vocab_size, shape)
        .into_iter()
        .map(|mut prompt| {
            prompt.extend_from_slice(&block);
            GenRequest {
                prompt,
                max_new_tokens: 8,
                class: QosClass::Standard,
                due_round: 0,
            }
        })
        .collect()
}

/// Generates one lap's serving request list: stratified lengths, QoS classes
/// 1:2:1, and a bursty arrival schedule on the round clock (bursts of one to
/// three requests, the gap after a burst proportional to its size). The
/// shared system prompts follow `seed`, everything after them `lap_seed`.
pub fn serve_requests(
    seed: u64,
    lap_seed: u64,
    vocab_size: usize,
    shape: &ServeShape,
) -> Vec<GenRequest> {
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED);
    let n = shape.requests;
    let lengths = stratified(&mut rng, n, shape.prompt_tokens, shape.log_uniform);
    let outputs = stratified(&mut rng, n, shape.output_tokens, false);
    let mut classes: Vec<QosClass> = (0..n)
        .map(|i| match i % 4 {
            0 => QosClass::Interactive,
            3 => QosClass::Background,
            _ => QosClass::Standard,
        })
        .collect();
    shuffle(&mut rng, &mut classes);

    let systems = system_prompts(seed, vocab_size, shape);
    let n_sys = systems.len();
    let body = corpus_tokens(vocab_size, lap_seed, lengths.iter().sum());
    let mut cursor = 0;
    let mut requests: Vec<GenRequest> = (0..n)
        .map(|i| {
            let mut prompt = systems.get(i % n_sys.max(1)).cloned().unwrap_or_default();
            let unique_from = prompt.len();
            prompt.extend_from_slice(&body[cursor..cursor + lengths[i]]);
            cursor += lengths[i];
            stamp(&mut prompt, unique_from, i, vocab_size);
            GenRequest {
                prompt,
                max_new_tokens: outputs[i],
                class: classes[i],
                due_round: 0,
            }
        })
        .collect();

    let (n_long, long_len, long_out) = shape.long_prompts;
    for l in 0..n_long {
        let mut prompt = corpus_tokens(vocab_size, lap_seed ^ (0x10_0000 + l as u64), long_len);
        stamp(&mut prompt, 0, n + l, vocab_size);
        let at = (l + 1) * requests.len() / (n_long + 1);
        requests.insert(
            at,
            GenRequest {
                prompt,
                max_new_tokens: long_out,
                class: QosClass::Standard,
                due_round: 0,
            },
        );
    }

    let mut round = 0.0;
    let mut i = 0;
    while i < requests.len() {
        let burst = rng.gen_range(1..4usize).min(requests.len() - i);
        for request in &mut requests[i..i + burst] {
            request.due_round = round as u64;
        }
        round += burst as f64 * shape.rounds_per_arrival * rng.gen_range(0.5..1.5);
        i += burst;
    }
    requests
}

/// FNV-1a digest of a request list, covering every generated field.
pub fn digest(requests: &[GenRequest]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in requests {
        eat(r.due_round);
        eat(r.class.index() as u64);
        eat(r.max_new_tokens as u64);
        eat(r.prompt.len() as u64);
        r.prompt.iter().for_each(|&t| eat(u64::from(t)));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const MIXED: ServeShape = ServeShape {
        requests: 24,
        prompt_tokens: (32, 512),
        log_uniform: true,
        output_tokens: (32, 128),
        long_prompts: (2, 1536, 64),
        system_prompts: (0, 0),
        rounds_per_arrival: 9.0,
    };

    #[test]
    fn same_seed_same_list_different_seed_different_list() {
        let a = serve_requests(11, 5, 2048, &MIXED);
        assert_eq!(a, serve_requests(11, 5, 2048, &MIXED));
        assert_eq!(digest(&a), digest(&serve_requests(11, 5, 2048, &MIXED)));
        let b = serve_requests(12, 6, 2048, &MIXED);
        assert_ne!(digest(&a), digest(&b));
        // Only the token contents follow the seed; the shape is frozen.
        let shape = |l: &[GenRequest]| -> Vec<(usize, usize, QosClass, u64)> {
            l.iter()
                .map(|r| (r.prompt.len(), r.max_new_tokens, r.class, r.due_round))
                .collect()
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn mixed_list_has_the_catalogued_shape_and_no_shared_block() {
        for seed in [11, 12, 13] {
            let list = serve_requests(seed, seed + 100, 2048, &MIXED);
            assert_eq!(list.len(), 26);
            let long: Vec<_> = list.iter().filter(|r| r.prompt.len() == 1536).collect();
            assert_eq!(long.len(), 2);
            assert!(list
                .iter()
                .all(|r| r.prompt.len() == 1536 || (32..=512).contains(&r.prompt.len())));
            assert!(list.iter().all(|r| r.prompt.iter().all(|&t| t < 2048)));
            assert!(list.windows(2).all(|w| w[0].due_round <= w[1].due_round));
            // Stratified: every seed offers (nearly) the same total work.
            let prompt_total: usize = list.iter().map(|r| r.prompt.len()).sum();
            assert!((6500..=8500).contains(&prompt_total), "{prompt_total}");
            let firsts: BTreeSet<&[u32]> = list.iter().map(|r| &r.prompt[..32]).collect();
            assert_eq!(firsts.len(), list.len(), "first blocks are unique");
            let interactive = list
                .iter()
                .filter(|r| r.class == QosClass::Interactive)
                .count();
            assert_eq!(interactive, 6);
        }
    }

    #[test]
    fn shared_prefix_list_shares_exactly_the_system_prompts() {
        let shape = ServeShape {
            requests: 12,
            prompt_tokens: (32, 96),
            log_uniform: false,
            output_tokens: (24, 48),
            long_prompts: (0, 0, 0),
            system_prompts: (2, 1024),
            rounds_per_arrival: 5.0,
        };
        let list = serve_requests(11, 77, 2048, &shape);
        let prefixes: BTreeSet<&[u32]> = list.iter().map(|r| &r.prompt[..1024]).collect();
        assert_eq!(prefixes.len(), 2);
        let tails: BTreeSet<&[u32]> = list.iter().map(|r| &r.prompt[1024..1056]).collect();
        assert_eq!(tails.len(), list.len(), "suffix blocks are unique");
        assert!(list.iter().all(|r| (1056..=1120).contains(&r.prompt.len())));
        // Another lap of the same seed: the same system prompts, new suffixes.
        let next = serve_requests(11, 78, 2048, &shape);
        assert!(next.iter().all(|r| prefixes.contains(&r.prompt[..1024])));
        assert!(next.iter().all(|r| !tails.contains(&r.prompt[1024..1056])));
        // The leaders carry exactly those system prompts; unshared traffic
        // has none.
        let leaders = system_prompt_leaders(11, 2048, &shape);
        assert_eq!(leaders.len(), 2);
        assert!(leaders.iter().all(|r| prefixes.contains(&r.prompt[..1024])));
        assert!(system_prompt_leaders(11, 2048, &MIXED).is_empty());
    }
}
