//! The `serverd` binary: load the layered config, spawn the shard fleet,
//! and serve until shut down over HTTP (`POST /admin/shutdown`).

use million_serverd::{AppConfig, Server};

const USAGE: &str = "\
serverd — networked serving front-end for the MILLION engine

USAGE:
    serverd [--config <path>] [--listen <addr>] [--shards <n>]
            [--set section.key=value]...

Layering (later wins): built-in defaults, the --config TOML file,
SERVERD_<SECTION>_<KEY> environment variables, then flags in order.
GET /config on the running server echoes the effective configuration.

Example:
    serverd --listen 127.0.0.1:8077 --shards 2 \\
            --set engine.model=tiny-test --set serving.max_resident=8
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }

    // The one sanctioned env read: main.rs hands the raw lookup to the
    // config layering, which owns precedence (flag > env > default).
    #[allow(clippy::disallowed_methods)]
    let config = match AppConfig::layered(&args, |var| std::env::var(var).ok()) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("serverd: {e}");
            eprintln!("run `serverd --help` for usage");
            std::process::exit(2);
        }
    };

    eprintln!(
        "serverd: building `{}` once for {} shard(s) ({}-bit PQ, prefix sharing {}) ...",
        config.engine.model,
        config.server.shards,
        config.engine.bits,
        if config.engine.prefix_sharing {
            "on"
        } else {
            "off"
        },
    );
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serverd: {e}");
            std::process::exit(1);
        }
    };
    println!("serverd listening on http://{}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("serverd: accept loop failed: {e}");
        std::process::exit(1);
    }
}
