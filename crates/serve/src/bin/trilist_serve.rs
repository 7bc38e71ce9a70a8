//! Standalone `trilist-serve` server.
//!
//! ```text
//! trilist_serve [--addr HOST:PORT] [--workers N] [--max-inflight N]
//!               [--max-queue N] [--max-ops F] [--memory-bytes N]
//!               [--cache-entries N] [--cache-bytes N]
//!               [--chaos-seed N]
//! ```
//!
//! `--chaos-seed N` arms deterministic fault injection: every connection
//! suffers seeded short reads/writes, `WouldBlock`/`EINTR` storms,
//! resets, stalls, worker panics, gauge spikes, and deadline skew — the
//! same seed reproduces the same fault schedule. For drills only; never
//! arm it on a server anyone depends on.
//!
//! Under overload the server degrades before it rejects: past 75% of
//! its queue or memory ceiling it clamps request deadlines, forcing the
//! partial+resume path, and past 90% it also evicts one cold cache entry
//! of another graph per request. Kernel memory degrades only inside each
//! run's own memory budget.
//!
//! Runs until a client sends `Shutdown` (or the process is killed).

use trilist_serve::{ChaosPlan, ServeConfig, Server};

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(raw) = value else {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: could not parse {raw:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse("--addr", args.next()),
            "--workers" => cfg.workers = parse("--workers", args.next()),
            "--max-inflight" => cfg.admission.max_inflight = parse("--max-inflight", args.next()),
            "--max-queue" => cfg.admission.max_queue = parse("--max-queue", args.next()),
            "--max-ops" => cfg.admission.max_predicted_ops = Some(parse("--max-ops", args.next())),
            "--memory-bytes" => cfg.memory_bytes = Some(parse("--memory-bytes", args.next())),
            "--cache-entries" => cfg.store.max_entries = parse("--cache-entries", args.next()),
            "--cache-bytes" => cfg.store.cache_bytes = Some(parse("--cache-bytes", args.next())),
            "--chaos-seed" => {
                cfg.chaos = Some(ChaosPlan::seeded(parse("--chaos-seed", args.next())));
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    if let Some(plan) = &cfg.chaos {
        eprintln!(
            "trilist-serve CHAOS ARMED (seed {}): faults will be injected",
            plan.seed
        );
        // Injected worker panics are caught and answered; keep their
        // backtraces out of the log.
        trilist_core::silence_injected_panics();
    }
    let server = Server::bind(addr.as_str(), cfg).unwrap_or_else(|e| {
        eprintln!("bind {addr}: {e}");
        std::process::exit(1);
    });
    println!("trilist-serve listening on {}", server.addr());
    server.wait();
    println!("trilist-serve drained");
}
