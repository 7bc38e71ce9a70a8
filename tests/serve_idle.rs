//! Idle connections must not burn CPU: the event loop blocks in the
//! poller with no timeout when there is nothing to do.
//!
//! This file holds exactly one test so `/proc/self/stat` measures only
//! this process doing only this work.

#![cfg(target_os = "linux")]

use trilist::serve::{Client, ServeConfig, Server};

/// Whole-process CPU time (user + system) in clock ticks.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 is `(comm)` and may contain spaces; parse after the ')'.
    let after = stat.rsplit(')').next().expect("stat tail");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the ')' split, utime and stime are fields 11 and 12 (0-based).
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

#[test]
fn idle_connections_burn_near_zero_cpu() {
    let tick_ms = 1000 / unsafe { libc_sc_clk_tck() }.max(1);
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    // Eight connections, each provably live (one round trip), then left
    // idle.
    let mut clients: Vec<Client> = (0..8)
        .map(|_| {
            let mut c = Client::connect(server.addr()).expect("connect");
            c.stats().expect("round trip");
            c
        })
        .collect();
    let before = cpu_ticks();
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let burned_ms = (cpu_ticks() - before) * tick_ms;
    assert!(
        burned_ms <= 200,
        "8 idle connections burned ~{burned_ms} ms CPU over 1.5 s"
    );
    for c in &mut clients {
        c.stats().expect("still serving after the idle window");
    }
    drop(clients);
    server.join();
}

/// `sysconf(_SC_CLK_TCK)` without a libc crate dependency.
unsafe fn libc_sc_clk_tck() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let v = sysconf(SC_CLK_TCK);
    if v > 0 {
        v as u64
    } else {
        100
    }
}
