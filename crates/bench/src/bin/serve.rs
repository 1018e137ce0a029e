//! `serve`: the standalone network front-end over a synthetic uncertain
//! set — the server half of the `load_gen` pair and the CI
//! `server-smoke` target.
//!
//! ```text
//! serve [--n N] [--k K] [--addr HOST:PORT] [--for SECS]
//!       [--queue-bound B] [--window-us U] [--max-batch M] [--seed S]
//! ```
//!
//! Prints `serve: listening on <addr> …` once the listener is bound (the
//! line scripts wait for), then serves until `--for` seconds elapse
//! (default: forever). Set `UNC_OBS_FLUSH=<file.jsonl>` (and optionally
//! `UNC_OBS_FLUSH_MS`) to stream `obs/v1` metric snapshots — including
//! `server.request.wall`, `server.queue.depth`, and `server.shed` — for
//! `load_gen --obs` / `obs_check` to consume.
//!
//! The engine is built from `EngineConfig::default()` plus the engine's
//! env overrides: `UNC_ENGINE_SHARDS=N` serves `N` shards (default 1, split
//! by region), and `UNC_ENGINE_REBALANCE`/`UNC_ENGINE_THREADS` tune the
//! rest — so a sharded engine, with its query pruning and rebalancing, is
//! one env var away from the wire.

use std::sync::Arc;
use std::time::Duration;

use uncertain_engine::server::{Server, ServerConfig};
use uncertain_engine::{Engine, EngineConfig};
use uncertain_nn::workload;

fn main() {
    let mut n = 5_000usize;
    let mut k = 3usize;
    let mut seed = 42u64;
    let mut secs: Option<u64> = None;
    let mut cfg = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--n" => n = parse(&val("--n")),
            "--k" => k = parse::<usize>(&val("--k")).max(1),
            "--seed" => seed = parse(&val("--seed")),
            "--addr" => cfg.addr = val("--addr"),
            "--for" => secs = Some(parse(&val("--for"))),
            "--queue-bound" => cfg.queue_bound = parse(&val("--queue-bound")),
            "--window-us" => cfg.batch_window = Duration::from_micros(parse(&val("--window-us"))),
            "--max-batch" => cfg.max_batch = parse::<usize>(&val("--max-batch")).max(1),
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let _flusher = uncertain_obs::Flusher::from_env();
    let set = workload::random_discrete_set(n, k, 5.0, seed);
    let engine = Arc::new(Engine::new(set, EngineConfig::default()));
    let shards = engine.num_shards();
    let handle = match Server::start(engine, cfg.clone()) {
        Ok(h) => h,
        Err(e) => die(&format!("cannot bind {}: {e}", cfg.addr)),
    };
    println!(
        "serve: listening on {} (n={n}, k={k}, shards {}, queue bound {}, window {}µs, max batch {})",
        handle.local_addr(),
        shards,
        cfg.queue_bound,
        cfg.batch_window.as_micros(),
        cfg.max_batch,
    );

    match secs {
        Some(s) => std::thread::sleep(Duration::from_secs(s)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    handle.shutdown();
    println!("serve: done");
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("cannot parse {s:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    eprintln!(
        "usage: serve [--n N] [--k K] [--addr HOST:PORT] [--for SECS] \
         [--queue-bound B] [--window-us U] [--max-batch M] [--seed S]"
    );
    std::process::exit(2);
}
