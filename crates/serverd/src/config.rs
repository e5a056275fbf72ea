//! Layered configuration for `serverd`.
//!
//! The effective [`AppConfig`] is assembled in four layers, later layers
//! overriding earlier ones key by key:
//!
//! 1. **Defaults** — [`AppConfig::default`], a small-but-real two-shard
//!    simulated 7B deployment.
//! 2. **Config file** — a TOML subset parsed by [`AppConfig::apply_toml`]
//!    (`[section]` headers; `key = value` with integer, float, boolean, and
//!    quoted-string values; `#` comments). The build vendors no TOML crate,
//!    so the parser is hand-rolled over `std`.
//! 3. **Environment** — `SERVERD_<SECTION>_<KEY>` (e.g.
//!    `SERVERD_SERVER_SHARDS=4`).
//! 4. **CLI** — `--config <path>`, repeatable `--set section.key=value`, and
//!    the `--listen <addr>` / `--shards <n>` shorthands.
//!
//! Every layer funnels through [`AppConfig::set`], the single typed
//! dispatcher, so an unknown key or malformed value fails identically no
//! matter which layer supplied it. `GET /config` serializes the effective
//! struct back out, which is how operators audit what the layering resolved
//! to.

use serde::Serialize;

use million::{MillionConfig, ServingConfig};
use million_model::ModelConfig;

/// Listener and router settings (the `[server]` section).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerSettings {
    /// Address to bind, e.g. `127.0.0.1:8077`. Port 0 picks an ephemeral
    /// port (printed on startup; used by the tests).
    pub listen: String,
    /// Number of engine shards, each a thread owning one serving engine.
    pub shards: usize,
    /// Leading prompt tokens hashed for shard placement. Prompts sharing at
    /// least this long a prefix land on the same shard, so their PQ blocks
    /// deduplicate in that shard's store.
    pub affinity_tokens: usize,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
    /// Whether a request rejected by its home shard with `QueueFull` spills
    /// to the least-loaded other shard before being shed.
    pub spill: bool,
    /// `Retry-After` seconds attached to 429 load-shed responses.
    pub retry_after_s: u64,
    /// Crash-restarts the supervisor grants each shard before marking it
    /// permanently failed.
    pub max_shard_restarts: u64,
    /// Base backoff between shard restarts (doubles per restart, capped).
    pub restart_backoff_ms: u64,
    /// Extra placement attempts when every shard reports overload — covers
    /// the window where a crashed shard is restarting.
    pub submit_retries: u64,
    /// Base backoff between submit retries (doubled per attempt, plus
    /// deterministic jitter).
    pub submit_retry_backoff_ms: u64,
    /// Base directory for per-shard session checkpoints (shard `i` writes
    /// under `<dir>/shard-<i>`). Empty disables checkpointing and crash
    /// recovery.
    pub checkpoint_dir: String,
}

impl Default for ServerSettings {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:8077".to_string(),
            shards: 2,
            affinity_tokens: 32,
            max_body_bytes: 1 << 20,
            spill: true,
            retry_after_s: 1,
            max_shard_restarts: 3,
            restart_backoff_ms: 100,
            submit_retries: 2,
            submit_retry_backoff_ms: 25,
            checkpoint_dir: String::new(),
        }
    }
}

/// Model + quantizer settings, one engine per shard (the `[engine]`
/// section). Shards built from equal settings are bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineSettings {
    /// Model preset: `tiny-test`, `gpt2-xl-sim`, `llama2-7b-sim`,
    /// `mpt-7b-sim`, `longchat-7b-sim`, or `yarn-llama2-sim`.
    pub model: String,
    /// Seed for the simulated weights and codebook training.
    pub seed: u64,
    /// PQ bit width per sub-vector: 2, 3, or 4.
    pub bits: u32,
    /// Synthetic calibration-stream length for codebook training.
    pub calibration_tokens: usize,
    /// Full-precision tail kept alongside the codes (0 = pure PQ).
    pub residual_len: usize,
    /// Encode freshly generated KV on the background worker.
    pub async_quant: bool,
    /// Tokens per store block — also the granularity of prefix sharing.
    pub block_tokens: usize,
    /// Store byte budget per shard before cold-block eviction (0 = the
    /// engine default).
    pub store_byte_budget: usize,
    /// Deduplicate shared prompt prefixes inside each shard's store.
    pub prefix_sharing: bool,
}

impl Default for EngineSettings {
    fn default() -> Self {
        Self {
            model: "llama2-7b-sim".to_string(),
            seed: 42,
            bits: 4,
            calibration_tokens: 512,
            residual_len: 0,
            async_quant: true,
            block_tokens: 32,
            store_byte_budget: 0,
            prefix_sharing: true,
        }
    }
}

/// Per-shard continuous-batching settings (the `[serving]` section).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServingSettings {
    /// Sessions decoded concurrently per shard (at least 1).
    pub max_resident: usize,
    /// Pending-queue depth per shard; beyond it submissions spill/shed.
    pub queue_capacity: usize,
    /// KV-byte admission budget per shard (0 = unbounded).
    pub kv_byte_budget: usize,
    /// Rounds after which a starved queued request jumps the admission
    /// order.
    pub admission_aging_rounds: u64,
    /// Admission prefill chunk size in tokens; long prompts are
    /// teacher-forced one chunk per serve round so they never stall
    /// resident decodes. At least 1; a value ≥ the longest prompt admits
    /// every prompt whole.
    pub prefill_chunk_tokens: usize,
    /// Record latency histograms, per-phase round timing, and the
    /// request-lifecycle journal on each shard. Off, the engines read no
    /// clocks beyond the per-request report timing.
    pub telemetry: bool,
    /// Lifecycle-journal ring capacity per shard (oldest events are
    /// evicted beyond it).
    pub journal_events: usize,
    /// Checkpoint live sessions every N rounds (0 = only on drain).
    /// Effective only when `server.checkpoint_dir` is set.
    pub checkpoint_every_rounds: u64,
}

impl Default for ServingSettings {
    fn default() -> Self {
        let d = ServingConfig::default();
        Self {
            max_resident: d.max_resident,
            queue_capacity: d.queue_capacity,
            kv_byte_budget: d.kv_byte_budget.unwrap_or(0),
            admission_aging_rounds: d.admission_aging_rounds,
            prefill_chunk_tokens: d.prefill_chunk_tokens,
            telemetry: d.telemetry,
            journal_events: d.journal_events,
            checkpoint_every_rounds: d.checkpoint_every_rounds,
        }
    }
}

/// Deterministic fault injection (the `[fault]` section) — chaos-test
/// knobs, off by default. See [`million::FaultPlan`] for the spec grammar.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FaultSettings {
    /// Fault-plan spec, e.g. `panic@shard=0,round=5 snapshot_io@write=2`.
    /// Empty injects nothing. Each shard gets its own plan instance (own
    /// counters) parsed from this spec.
    pub plan: String,
    /// Seed for the plan's deterministic jitter draws.
    pub seed: u64,
}

/// The whole layered configuration: `[server]` + `[engine]` + `[serving]`
/// + `[fault]`.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct AppConfig {
    /// Listener and sharding router settings.
    pub server: ServerSettings,
    /// Per-shard model/quantizer settings.
    pub engine: EngineSettings,
    /// Per-shard continuous-batching settings.
    pub serving: ServingSettings,
    /// Deterministic fault-injection schedule (chaos testing).
    pub fault: FaultSettings,
}

/// Why configuration loading failed. Carries enough context to point the
/// operator at the offending layer, line, or key.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The `--config` file could not be read.
    Io(String),
    /// A config-file line could not be parsed.
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// A key no section defines, e.g. `server.typo`.
    UnknownKey(String),
    /// A known key given an unusable value.
    BadValue {
        /// The dotted `section.key` path.
        key: String,
        /// Why the value was rejected.
        msg: String,
    },
    /// A malformed command-line argument.
    BadArg(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Io(msg) => write!(f, "config file: {msg}"),
            ConfigError::Parse { line, msg } => write!(f, "config file line {line}: {msg}"),
            ConfigError::UnknownKey(key) => write!(f, "unknown config key `{key}`"),
            ConfigError::BadValue { key, msg } => write!(f, "bad value for `{key}`: {msg}"),
            ConfigError::BadArg(msg) => write!(f, "bad argument: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Every settable `(section, key)` pair — the key space shared by the TOML,
/// environment, and CLI layers.
const KEYS: &[(&str, &str)] = &[
    ("server", "listen"),
    ("server", "shards"),
    ("server", "affinity_tokens"),
    ("server", "max_body_bytes"),
    ("server", "spill"),
    ("server", "retry_after_s"),
    ("server", "max_shard_restarts"),
    ("server", "restart_backoff_ms"),
    ("server", "submit_retries"),
    ("server", "submit_retry_backoff_ms"),
    ("server", "checkpoint_dir"),
    ("engine", "model"),
    ("engine", "seed"),
    ("engine", "bits"),
    ("engine", "calibration_tokens"),
    ("engine", "residual_len"),
    ("engine", "async_quant"),
    ("engine", "block_tokens"),
    ("engine", "store_byte_budget"),
    ("engine", "prefix_sharing"),
    ("serving", "max_resident"),
    ("serving", "queue_capacity"),
    ("serving", "kv_byte_budget"),
    ("serving", "admission_aging_rounds"),
    ("serving", "prefill_chunk_tokens"),
    ("serving", "telemetry"),
    ("serving", "journal_events"),
    ("serving", "checkpoint_every_rounds"),
    ("fault", "plan"),
    ("fault", "seed"),
];

fn parse_num<T: std::str::FromStr>(section: &str, key: &str, raw: &str) -> Result<T, ConfigError> {
    // Accept 32_768-style underscore grouping like real TOML does.
    let cleaned: String = raw.chars().filter(|&c| c != '_').collect();
    cleaned.parse().map_err(|_| ConfigError::BadValue {
        key: format!("{section}.{key}"),
        msg: format!("expected a number, got `{raw}`"),
    })
}

/// A count that must be at least 1: zero shards, resident slots or chunk
/// tokens would accept requests and never serve them.
fn parse_positive(section: &str, key: &str, raw: &str) -> Result<usize, ConfigError> {
    match parse_num(section, key, raw)? {
        0 => Err(ConfigError::BadValue {
            key: format!("{section}.{key}"),
            msg: "must be at least 1".into(),
        }),
        n => Ok(n),
    }
}

fn parse_bool(section: &str, key: &str, raw: &str) -> Result<bool, ConfigError> {
    match raw {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(ConfigError::BadValue {
            key: format!("{section}.{key}"),
            msg: format!("expected true/false, got `{raw}`"),
        }),
    }
}

impl AppConfig {
    /// Sets one key from its string form — the single dispatcher every
    /// layer goes through. `raw` is the value with quotes already stripped.
    pub fn set(&mut self, section: &str, key: &str, raw: &str) -> Result<(), ConfigError> {
        let raw = raw.trim();
        match (section, key) {
            ("server", "listen") => self.server.listen = raw.to_string(),
            ("server", "shards") => self.server.shards = parse_positive(section, key, raw)?,
            ("server", "affinity_tokens") => {
                self.server.affinity_tokens = parse_num(section, key, raw)?
            }
            ("server", "max_body_bytes") => {
                self.server.max_body_bytes = parse_num(section, key, raw)?
            }
            ("server", "spill") => self.server.spill = parse_bool(section, key, raw)?,
            ("server", "retry_after_s") => {
                self.server.retry_after_s = parse_num(section, key, raw)?
            }
            ("server", "max_shard_restarts") => {
                self.server.max_shard_restarts = parse_num(section, key, raw)?
            }
            ("server", "restart_backoff_ms") => {
                self.server.restart_backoff_ms = parse_num(section, key, raw)?
            }
            ("server", "submit_retries") => {
                self.server.submit_retries = parse_num(section, key, raw)?
            }
            ("server", "submit_retry_backoff_ms") => {
                self.server.submit_retry_backoff_ms = parse_num(section, key, raw)?
            }
            ("server", "checkpoint_dir") => self.server.checkpoint_dir = raw.to_string(),
            ("engine", "model") => self.engine.model = raw.to_string(),
            ("engine", "seed") => self.engine.seed = parse_num(section, key, raw)?,
            ("engine", "bits") => {
                self.engine.bits = parse_num(section, key, raw)?;
                if !matches!(self.engine.bits, 2..=4) {
                    return Err(ConfigError::BadValue {
                        key: "engine.bits".into(),
                        msg: "supported PQ widths are 2, 3, and 4".into(),
                    });
                }
            }
            ("engine", "calibration_tokens") => {
                self.engine.calibration_tokens = parse_num(section, key, raw)?
            }
            ("engine", "residual_len") => self.engine.residual_len = parse_num(section, key, raw)?,
            ("engine", "async_quant") => self.engine.async_quant = parse_bool(section, key, raw)?,
            ("engine", "block_tokens") => self.engine.block_tokens = parse_num(section, key, raw)?,
            ("engine", "store_byte_budget") => {
                self.engine.store_byte_budget = parse_num(section, key, raw)?
            }
            ("engine", "prefix_sharing") => {
                self.engine.prefix_sharing = parse_bool(section, key, raw)?
            }
            ("serving", "max_resident") => {
                self.serving.max_resident = parse_positive(section, key, raw)?
            }
            ("serving", "queue_capacity") => {
                self.serving.queue_capacity = parse_num(section, key, raw)?
            }
            ("serving", "kv_byte_budget") => {
                self.serving.kv_byte_budget = parse_num(section, key, raw)?
            }
            ("serving", "admission_aging_rounds") => {
                self.serving.admission_aging_rounds = parse_num(section, key, raw)?
            }
            ("serving", "prefill_chunk_tokens") => {
                self.serving.prefill_chunk_tokens = parse_positive(section, key, raw)?
            }
            ("serving", "telemetry") => self.serving.telemetry = parse_bool(section, key, raw)?,
            ("serving", "journal_events") => {
                self.serving.journal_events = parse_num(section, key, raw)?
            }
            ("serving", "checkpoint_every_rounds") => {
                self.serving.checkpoint_every_rounds = parse_num(section, key, raw)?
            }
            ("fault", "plan") => {
                million::FaultPlan::parse(raw, 0).map_err(|msg| ConfigError::BadValue {
                    key: "fault.plan".into(),
                    msg,
                })?;
                self.fault.plan = raw.to_string();
            }
            ("fault", "seed") => self.fault.seed = parse_num(section, key, raw)?,
            _ => return Err(ConfigError::UnknownKey(format!("{section}.{key}"))),
        }
        Ok(())
    }

    /// Applies a TOML-subset document on top of the current values.
    pub fn apply_toml(&mut self, text: &str) -> Result<(), ConfigError> {
        let mut section = String::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or(ConfigError::Parse {
                    line: lineno,
                    msg: "unterminated section header".into(),
                })?;
                section = name.trim().to_string();
                continue;
            }
            let (key, value) = line.split_once('=').ok_or(ConfigError::Parse {
                line: lineno,
                msg: format!("expected `key = value`, got `{line}`"),
            })?;
            if section.is_empty() {
                return Err(ConfigError::Parse {
                    line: lineno,
                    msg: "key before any [section] header".into(),
                });
            }
            let value =
                unquote(value.trim()).map_err(|msg| ConfigError::Parse { line: lineno, msg })?;
            self.set(&section, key.trim(), &value)?;
        }
        Ok(())
    }

    /// Applies `SERVERD_<SECTION>_<KEY>` overrides via the supplied lookup
    /// (indirection so tests need not mutate the process environment).
    pub fn apply_env(
        &mut self,
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<(), ConfigError> {
        for (section, key) in KEYS {
            let var = format!(
                "SERVERD_{}_{}",
                section.to_ascii_uppercase(),
                key.to_ascii_uppercase()
            );
            if let Some(value) = lookup(&var) {
                self.set(section, key, &value)?;
            }
        }
        Ok(())
    }

    /// Builds the effective config from all four layers: defaults, the
    /// `--config` file (if any), the environment, then the remaining CLI
    /// flags in the order written.
    pub fn layered(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, ConfigError> {
        let mut config = AppConfig::default();

        // The file layer is located by the CLI but applied before env/CLI
        // overrides, preserving defaults < file < env < flags precedence.
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--config" {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| ConfigError::BadArg("--config needs a path".into()))?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ConfigError::Io(format!("{path}: {e}")))?;
                config.apply_toml(&text)?;
            }
            i += 1;
        }

        config.apply_env(env)?;

        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--config" => i += 1, // already consumed above
                "--listen" => {
                    let addr = args
                        .get(i + 1)
                        .ok_or_else(|| ConfigError::BadArg("--listen needs an address".into()))?;
                    config.set("server", "listen", addr)?;
                    i += 1;
                }
                "--shards" => {
                    let n = args
                        .get(i + 1)
                        .ok_or_else(|| ConfigError::BadArg("--shards needs a count".into()))?;
                    config.set("server", "shards", n)?;
                    i += 1;
                }
                "--set" => {
                    let spec = args.get(i + 1).ok_or_else(|| {
                        ConfigError::BadArg("--set needs section.key=value".into())
                    })?;
                    let (path, value) = spec.split_once('=').ok_or_else(|| {
                        ConfigError::BadArg(format!("--set `{spec}` is missing `=`"))
                    })?;
                    let (section, key) = path.split_once('.').ok_or_else(|| {
                        ConfigError::BadArg(format!("--set key `{path}` is missing the section"))
                    })?;
                    config.set(section.trim(), key.trim(), value.trim())?;
                    i += 1;
                }
                other => {
                    return Err(ConfigError::BadArg(format!("unrecognized flag `{other}`")));
                }
            }
            i += 1;
        }
        Ok(config)
    }
}

/// Strips a `#` comment unless the `#` sits inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Removes surrounding double quotes if present; rejects half-quoted
/// values.
fn unquote(value: &str) -> Result<String, String> {
    if let Some(rest) = value.strip_prefix('"') {
        rest.strip_suffix('"')
            .map(|s| s.to_string())
            .ok_or_else(|| format!("unterminated string `{value}`"))
    } else if value.ends_with('"') {
        Err(format!("unterminated string `{value}`"))
    } else {
        Ok(value.to_string())
    }
}

impl EngineSettings {
    /// Resolves the model preset name.
    pub fn model_config(&self) -> Result<ModelConfig, ConfigError> {
        match self.model.as_str() {
            "tiny-test" => Ok(ModelConfig::tiny_for_tests()),
            "gpt2-xl-sim" => Ok(ModelConfig::gpt2_xl_sim()),
            "llama2-7b-sim" => Ok(ModelConfig::llama2_7b_sim()),
            "mpt-7b-sim" => Ok(ModelConfig::mpt_7b_sim()),
            "longchat-7b-sim" => Ok(ModelConfig::longchat_7b_sim()),
            "yarn-llama2-sim" => Ok(ModelConfig::yarn_llama2_sim()),
            other => Err(ConfigError::BadValue {
                key: "engine.model".into(),
                msg: format!("unknown model preset `{other}`"),
            }),
        }
    }

    /// Builds the per-shard quantizer configuration for `head_dim`.
    pub fn million_config(&self, head_dim: usize) -> MillionConfig {
        let mut cfg = match self.bits {
            2 => MillionConfig::two_bit(head_dim),
            3 => MillionConfig::three_bit(head_dim),
            _ => MillionConfig::four_bit(head_dim),
        };
        cfg.seed = self.seed;
        cfg.calibration_tokens = self.calibration_tokens;
        cfg.async_quant = self.async_quant;
        cfg = cfg
            .with_residual_len(self.residual_len)
            .with_block_tokens(self.block_tokens);
        if self.store_byte_budget > 0 {
            cfg = cfg.with_store_byte_budget(self.store_byte_budget);
        }
        if self.prefix_sharing {
            cfg = cfg.with_prefix_sharing();
        }
        cfg
    }
}

impl ServingSettings {
    /// Converts to the engine's [`ServingConfig`].
    pub fn to_serving_config(&self) -> ServingConfig {
        ServingConfig {
            max_resident: self.max_resident,
            queue_capacity: self.queue_capacity,
            kv_byte_budget: (self.kv_byte_budget > 0).then_some(self.kv_byte_budget),
            admission_aging_rounds: self.admission_aging_rounds,
            prefill_chunk_tokens: self.prefill_chunk_tokens,
            telemetry: self.telemetry,
            journal_events: self.journal_events,
            ..ServingConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_then_file_then_env_then_cli_layer_in_order() {
        let toml = r#"
            # deployment profile
            [server]
            shards = 4
            listen = "0.0.0.0:9000" # overridden below by env
            [engine]
            bits = 3
            block_tokens = 16
            [serving]
            queue_capacity = 1_024
        "#;
        let dir = std::env::temp_dir().join("serverd-config-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("layered.toml");
        std::fs::write(&path, toml).unwrap();

        let args: Vec<String> = [
            "--config",
            path.to_str().unwrap(),
            "--shards",
            "3",
            "--set",
            "engine.seed=7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let config = AppConfig::layered(&args, |var| {
            (var == "SERVERD_SERVER_LISTEN").then(|| "127.0.0.1:0".to_string())
        })
        .unwrap();

        assert_eq!(config.server.shards, 3, "CLI beats file");
        assert_eq!(config.server.listen, "127.0.0.1:0", "env beats file");
        assert_eq!(config.engine.bits, 3, "file beats default");
        assert_eq!(config.engine.block_tokens, 16);
        assert_eq!(config.serving.queue_capacity, 1024, "underscore grouping");
        assert_eq!(config.engine.seed, 7, "--set applies");
        assert_eq!(
            config.server.spill,
            ServerSettings::default().spill,
            "untouched keys keep defaults"
        );
    }

    #[test]
    fn bad_keys_and_values_are_rejected_with_context() {
        let mut config = AppConfig::default();
        assert!(matches!(
            config.set("server", "typo", "1"),
            Err(ConfigError::UnknownKey(k)) if k == "server.typo"
        ));
        assert!(matches!(
            config.set("engine", "bits", "7"),
            Err(ConfigError::BadValue { .. })
        ));
        for (section, key) in [
            ("server", "shards"),
            ("serving", "max_resident"),
            ("serving", "prefill_chunk_tokens"),
        ] {
            assert!(
                matches!(
                    config.set(section, key, "0"),
                    Err(ConfigError::BadValue { msg, .. }) if msg == "must be at least 1"
                ),
                "{section}.{key} = 0 accepts requests it can never serve"
            );
        }
        assert_eq!(
            config.serving,
            ServingSettings::default(),
            "a rejected value leaves the setting untouched"
        );
        assert!(matches!(
            config.apply_toml("shards = 2"),
            Err(ConfigError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            config.apply_toml("[server]\nlisten = \"unterminated"),
            Err(ConfigError::Parse { line: 2, .. })
        ));
        let err = AppConfig::layered(&["--bogus".to_string()], |_| None).unwrap_err();
        assert!(matches!(err, ConfigError::BadArg(_)));
    }

    #[test]
    fn engine_settings_build_a_consistent_million_config() {
        let mut settings = EngineSettings {
            model: "tiny-test".into(),
            bits: 2,
            residual_len: 8,
            block_tokens: 16,
            store_byte_budget: 4096,
            prefix_sharing: true,
            ..EngineSettings::default()
        };
        let model = settings.model_config().unwrap();
        let cfg = settings.million_config(model.head_dim());
        assert_eq!(cfg.residual_len, 8);
        assert_eq!(cfg.block_tokens, 16);
        assert_eq!(cfg.store_byte_budget, 4096);
        assert!(cfg.prefix_sharing);
        assert_eq!(cfg.seed, settings.seed);
        settings.model = "no-such-model".into();
        assert!(settings.model_config().is_err());
    }

    #[test]
    fn config_serializes_for_the_config_endpoint() {
        let json = serde_json::to_string(&AppConfig::default()).unwrap();
        let value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            value
                .get("server")
                .and_then(|s| s.get("shards"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            value
                .get("engine")
                .and_then(|e| e.get("model"))
                .and_then(|v| v.as_str()),
            Some("llama2-7b-sim")
        );
    }
}
