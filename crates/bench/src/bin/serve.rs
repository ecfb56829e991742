//! `memcomm-serve` — the long-lived simulation server.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N]
//!       [--cache-capacity N] [--max-frame BYTES]
//! ```
//!
//! Binds, prints one `listening on ADDR (workers=N)` line to stdout (the
//! smoke harness waits for it), then serves until a `shutdown` request
//! arrives. The protocol, the cache discipline, and the determinism
//! argument live in [`memcomm_bench::service`].

use memcomm_bench::service::server::{Server, ServerConfig};
use memcomm_machines::memo::MemoConfig;

fn usage_error(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--cache-capacity N] \
         [--max-frame BYTES]"
    );
    std::process::exit(2);
}

fn number(it: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    match it.next().as_deref().map(str::parse) {
        Some(Ok(n)) => n,
        _ => usage_error(&format!("{flag} takes a non-negative integer")),
    }
}

fn main() {
    let mut config = ServerConfig::default();
    let mut cache = MemoConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(addr) => config.addr = addr,
                None => usage_error("--addr takes HOST:PORT"),
            },
            "--workers" => config.workers = number(&mut it, "--workers").max(1) as usize,
            "--cache-capacity" => cache.capacity = number(&mut it, "--cache-capacity") as usize,
            "--max-frame" => config.max_frame = number(&mut it, "--max-frame").max(64) as usize,
            "--help" | "-h" => usage_error("help requested"),
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    config.cache = cache;
    let workers = config.workers;
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {} (workers={})", server.addr(), workers);
    server.wait();
    let stats = server.state().cache.stats();
    println!(
        "shutting down: cache {} hits / {} misses / {} evictions ({} entries)",
        stats.hits, stats.misses, stats.evictions, stats.entries
    );
}
