//! File-descriptor exhaustion drill, in its own test binary (= its own
//! process) because it deliberately drives the process fd table to the
//! `RLIMIT_NOFILE` wall: with zero descriptors free, the server's accept
//! path must classify `EMFILE` as transient pressure — count it, back
//! off, keep the listener registered — and accept again the moment
//! descriptors free up. Existing connections must keep working
//! throughout. Skips (loudly) when the soft limit is too high to reach
//! safely.

use std::fs::File;
use std::io::ErrorKind;
use std::time::Duration;
use trilist::serve::{accept_error_action, AcceptAction, Client, ListParams, ServeConfig, Server};

/// Attempt ceiling for the hoard; a box with a higher soft limit skips
/// the drill rather than opening files forever.
const MAX_HOARD: usize = 70_000;

fn field(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("stats missing {name}"))
}

#[test]
fn accept_error_classification_is_typed() {
    // Portable kinds.
    assert!(matches!(
        accept_error_action(&ErrorKind::WouldBlock.into()),
        AcceptAction::WaitReadable
    ));
    assert!(matches!(
        accept_error_action(&ErrorKind::Interrupted.into()),
        AcceptAction::Retry
    ));
    // Raw errnos: fd exhaustion backs off, per-connection races retry.
    for errno in [23, 24] {
        // ENFILE, EMFILE
        assert!(
            matches!(
                accept_error_action(&std::io::Error::from_raw_os_error(errno)),
                AcceptAction::Backoff(_)
            ),
            "errno {errno} must back off"
        );
    }
    for errno in [103, 71] {
        // ECONNABORTED, EPROTO
        assert!(
            matches!(
                accept_error_action(&std::io::Error::from_raw_os_error(errno)),
                AcceptAction::Retry
            ),
            "errno {errno} must retry"
        );
    }
    // Anything else still backs off instead of hot-spinning.
    assert!(matches!(
        accept_error_action(&std::io::Error::from_raw_os_error(13)),
        AcceptAction::Backoff(_)
    ));
}

#[test]
fn fd_exhaustion_backs_off_then_recovers() {
    let edges = [(0u32, 1u32), (0, 2), (1, 2)];

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    // A connection established before the famine: it must survive it.
    let mut veteran = Client::connect(addr.as_str()).unwrap();
    veteran.register_graph("k3", 3, &edges).unwrap();
    let run = veteran
        .list(ListParams::new("k3", "T1", "desc", "paper"))
        .unwrap();
    assert_eq!(run.cost.triangles, 1);
    let before = field(&veteran.stats().unwrap(), "accept_errors");

    // Hoard every free descriptor.
    let mut hoard = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => hoard.push(f),
            Err(_) => break,
        }
        if hoard.len() >= MAX_HOARD {
            println!("soft fd limit above {MAX_HOARD}, skipping the exhaustion drill");
            return;
        }
    }
    // Free exactly one slot and spend it on a dial: the kernel
    // completes the handshake into the backlog, but the server's
    // accept has no descriptor left and must hit EMFILE.
    hoard.pop();
    let pending = std::net::TcpStream::connect(addr.as_str()).unwrap();
    // Give the accept path time to fail (and to prove it does not
    // hot-spin: a spinning loop would rack up millions of errors).
    std::thread::sleep(Duration::from_millis(120));

    let stats = veteran.stats().expect("veteran connection survives famine");
    let during = field(&stats, "accept_errors");
    assert!(
        during > before,
        "accept must have hit the fd wall (errors {before} -> {during})"
    );
    assert!(
        during - before < 10_000,
        "accept loop is hot-spinning ({} errors in 120ms)",
        during - before
    );

    // Famine over: the listener must still be armed, and fresh
    // connections must work without a restart.
    drop(pending);
    drop(hoard);
    let mut fresh = Client::connect(addr.as_str()).expect("accept recovers after famine");
    let run = fresh
        .list(ListParams::new("k3", "T1", "desc", "paper"))
        .expect("fresh connection serves");
    assert_eq!(run.cost.triangles, 1);

    fresh.shutdown().unwrap();
    server.join();
}
