//! Deterministic chaos injection for the serve stack.
//!
//! [`ChaosPlan`] extends the PR 3 fault-injection philosophy
//! ([`trilist_core::FaultPlan`]) up through the connection layer: every
//! injection is a pure function of `(seed, conn_id, event_index)` — the
//! same splitmix64 chain, via [`trilist_core::fault_roll`] — so a chaos
//! run replays exactly from its seed, independent of thread interleaving
//! and poll batching. The plan drives two injection surfaces:
//!
//! * **I/O faults**, applied by [`ChaosStream`] around every socket
//!   `read`/`write` the server performs: short reads and writes (frame
//!   reassembly and coalesced-write stress), spurious
//!   `WouldBlock`/`EINTR` storms, mid-frame connection resets, and
//!   slowloris-style stalls. Each syscall attempt on a connection draws
//!   one monotonically increasing event index.
//! * **Execution faults**, applied by the server's guarded executor
//!   around every request body: worker-lane panics (absorbed by
//!   `catch_unwind`, answered as typed `Internal` errors), memory-gauge
//!   pressure spikes (ballast charged for the duration of the request),
//!   and deadline clock skew (a request's deadline shrinks, forcing the
//!   partial-result + resume path).
//!
//! The injected failure set is exactly what the protocol already claims
//! to survive, so `tests/serve_chaos.rs` can hold every *completed*
//! response byte-identical to a fault-free oracle.

use crate::metrics::Metric;
use crate::server::Shared;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;
use trilist_core::fault_roll;

// Injection-family salts (ASCII tags, mirroring FaultPlan's convention).
const SALT_RESET: u64 = 0x5253_4554; // "RSET"
const SALT_WOULDBLOCK: u64 = 0x5742_4c4b; // "WBLK"
const SALT_EINTR: u64 = 0x494e_5452; // "INTR"
const SALT_SHORT_READ: u64 = 0x5348_5244; // "SHRD"
const SALT_SHORT_WRITE: u64 = 0x5348_5752; // "SHWR"
const SALT_STALL: u64 = 0x5354_4c4c; // "STLL"
const SALT_SHORT_LEN: u64 = 0x534c_454e; // "SLEN"
const SALT_PANIC: u64 = 0x5850_414e; // "XPAN"
const SALT_SPIKE: u64 = 0x4753_504b; // "GSPK"
const SALT_SKEW: u64 = 0x534b_4557; // "SKEW"

/// Which syscall an I/O fault decision is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// A socket `read`.
    Read,
    /// A socket `write`.
    Write,
}

/// One injected I/O fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Shut the socket down and fail with `ConnectionReset`.
    Reset,
    /// Fail with a spurious `WouldBlock` (level-triggered readiness
    /// redelivers the event).
    WouldBlock,
    /// Fail with `Interrupted` — the event loop retries the syscall.
    Interrupted,
    /// Sleep this long, then perform the operation (slowloris pacing).
    Stall(Duration),
    /// Clamp the operation to at most this many bytes (short read/write).
    Short(usize),
}

/// One injected execution fault, drawn per `(conn, seq)` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecFault {
    /// Panic before the request body runs (the worker lane's
    /// `catch_unwind` must absorb it into a typed `Internal` error).
    Panic,
    /// Charge this much ballast to the shared memory gauge for the
    /// duration of the request.
    GaugeSpike(u64),
}

/// Seeded, schedule-independent fault plan for the serve stack. Rates
/// are per-mille over injection opportunities (syscalls for I/O faults,
/// requests for execution faults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed feeding every per-event hash.
    pub seed: u64,
    /// Per-mille of reads clamped to a tiny prefix (1–16 bytes).
    pub short_read_permille: u16,
    /// Per-mille of writes clamped to a tiny prefix (1–16 bytes).
    pub short_write_permille: u16,
    /// Per-mille of syscalls failing with a spurious `WouldBlock`.
    pub wouldblock_permille: u16,
    /// Per-mille of syscalls failing with `EINTR`.
    pub eintr_permille: u16,
    /// Per-mille of syscalls that reset the connection mid-frame.
    pub reset_permille: u16,
    /// Per-mille of syscalls delayed by [`ChaosPlan::stall`] first.
    pub stall_permille: u16,
    /// Slowloris pacing applied to stalled syscalls.
    pub stall: Duration,
    /// Per-mille of requests whose worker lane panics.
    pub panic_permille: u16,
    /// Per-mille of requests that spike the shared memory gauge.
    pub gauge_spike_permille: u16,
    /// Ballast charged by a gauge spike.
    pub gauge_spike_bytes: u64,
    /// Per-mille of requests whose deadline clock skews (the deadline
    /// shrinks to a quarter, forcing the partial + resume path; requests
    /// without a deadline are unaffected so completeness stays
    /// deterministic).
    pub skew_permille: u16,
}

impl ChaosPlan {
    /// A mixed plan exercising every fault kind at rates that stress the
    /// stack while leaving every retry loop convergent.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            short_read_permille: 120,
            short_write_permille: 120,
            wouldblock_permille: 80,
            eintr_permille: 60,
            reset_permille: 12,
            stall_permille: 20,
            stall: Duration::from_micros(200),
            panic_permille: 40,
            gauge_spike_permille: 30,
            gauge_spike_bytes: 8 << 20,
            skew_permille: 60,
        }
    }

    /// The fault injected into syscall attempt `event` on connection
    /// `conn`, if any. Precedence when several rates select the same
    /// event: reset, then stall, then `WouldBlock`, then `EINTR`, then
    /// short. Pure in `(seed, op, conn, event)`.
    pub fn io_fault(&self, op: IoOp, conn: u64, event: u64) -> Option<IoFault> {
        if fault_roll(self.seed, SALT_RESET, conn, event) < self.reset_permille {
            return Some(IoFault::Reset);
        }
        if fault_roll(self.seed, SALT_STALL, conn, event) < self.stall_permille {
            return Some(IoFault::Stall(self.stall));
        }
        if fault_roll(self.seed, SALT_WOULDBLOCK, conn, event) < self.wouldblock_permille {
            return Some(IoFault::WouldBlock);
        }
        if fault_roll(self.seed, SALT_EINTR, conn, event) < self.eintr_permille {
            return Some(IoFault::Interrupted);
        }
        let (salt, rate) = match op {
            IoOp::Read => (SALT_SHORT_READ, self.short_read_permille),
            IoOp::Write => (SALT_SHORT_WRITE, self.short_write_permille),
        };
        if fault_roll(self.seed, salt, conn, event) < rate {
            let cap = 1 + (fault_roll(self.seed, SALT_SHORT_LEN, conn, event) % 16) as usize;
            return Some(IoFault::Short(cap));
        }
        None
    }

    /// The fault injected into the execution of request `seq` on
    /// connection `conn`, if any. Panic takes precedence over a gauge
    /// spike. Pure in `(seed, conn, seq)`.
    pub fn exec_fault(&self, conn: u64, seq: u64) -> Option<ExecFault> {
        if fault_roll(self.seed, SALT_PANIC, conn, seq) < self.panic_permille {
            return Some(ExecFault::Panic);
        }
        if fault_roll(self.seed, SALT_SPIKE, conn, seq) < self.gauge_spike_permille {
            return Some(ExecFault::GaugeSpike(self.gauge_spike_bytes));
        }
        None
    }

    /// Whether request `seq` on connection `conn` runs under a skewed
    /// (quartered) deadline. Pure in `(seed, conn, seq)`.
    pub fn skews_deadline(&self, conn: u64, seq: u64) -> bool {
        fault_roll(self.seed, SALT_SKEW, conn, seq) < self.skew_permille
    }
}

/// A `TcpStream` wrapper injecting the server's chaos plan's I/O faults.
/// With no plan armed it is a zero-cost passthrough, so the event loop
/// always speaks through it. Each `read`/`write` call draws one event
/// index; the index advances on injected faults too, so the trace stays a
/// pure function of how many syscalls the connection attempted.
pub(crate) struct ChaosStream {
    inner: TcpStream,
    /// The server, when its chaos plan is armed.
    armed: Option<Arc<Shared>>,
    conn: u64,
    event: u64,
}

impl ChaosStream {
    pub(crate) fn new(inner: TcpStream, shared: &Arc<Shared>, conn: u64) -> ChaosStream {
        ChaosStream {
            inner,
            armed: shared.cfg.chaos.is_some().then(|| Arc::clone(shared)),
            conn,
            event: 0,
        }
    }

    /// Draws the fault for the next syscall attempt and counts it.
    fn next_fault(&mut self, op: IoOp) -> Option<IoFault> {
        let shared = self.armed.as_ref()?;
        let plan = shared.cfg.chaos.as_ref()?;
        let event = self.event;
        self.event += 1;
        let fault = plan.io_fault(op, self.conn, event)?;
        shared.metrics.bump(match (fault, op) {
            (IoFault::Reset, _) => Metric::ChaosResets,
            (IoFault::WouldBlock, _) => Metric::ChaosWouldBlocks,
            (IoFault::Interrupted, _) => Metric::ChaosEintrs,
            (IoFault::Stall(_), _) => Metric::ChaosStalls,
            (IoFault::Short(_), IoOp::Read) => Metric::ChaosShortReads,
            (IoFault::Short(_), IoOp::Write) => Metric::ChaosShortWrites,
        });
        Some(fault)
    }

    fn apply(&mut self, op: IoOp, len: usize) -> Result<usize, io::Error> {
        match self.next_fault(op) {
            None => Ok(len),
            Some(IoFault::Reset) => {
                let _ = self.inner.shutdown(Shutdown::Both);
                Err(io::ErrorKind::ConnectionReset.into())
            }
            Some(IoFault::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
            Some(IoFault::Interrupted) => Err(io::ErrorKind::Interrupted.into()),
            Some(IoFault::Stall(d)) => {
                std::thread::sleep(d);
                Ok(len)
            }
            // Never clamp to 0: a zero-length read means EOF to callers.
            Some(IoFault::Short(cap)) => Ok(cap.min(len).max(1)),
        }
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let take = self.apply(IoOp::Read, buf.len())?.min(buf.len());
        self.inner.read(&mut buf[..take])
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let take = self.apply(IoOp::Write, buf.len())?.min(buf.len());
        self.inner.write(&buf[..take])
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl AsRawFd for ChaosStream {
    fn as_raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let a = ChaosPlan::seeded(7);
        let b = ChaosPlan::seeded(7);
        for conn in 0..8 {
            for event in 0..256 {
                assert_eq!(
                    a.io_fault(IoOp::Read, conn, event),
                    b.io_fault(IoOp::Read, conn, event)
                );
                assert_eq!(
                    a.io_fault(IoOp::Write, conn, event),
                    b.io_fault(IoOp::Write, conn, event)
                );
                assert_eq!(a.exec_fault(conn, event), b.exec_fault(conn, event));
                assert_eq!(a.skews_deadline(conn, event), b.skews_deadline(conn, event));
            }
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let a = ChaosPlan::seeded(1);
        let b = ChaosPlan::seeded(2);
        let differs = (0..2048).any(|e| {
            a.io_fault(IoOp::Read, 0, e) != b.io_fault(IoOp::Read, 0, e)
                || a.exec_fault(0, e) != b.exec_fault(0, e)
        });
        assert!(differs, "different seeds must draw different traces");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = ChaosPlan::seeded(3);
        let mut resets = 0u32;
        let trials = 20_000;
        for e in 0..trials {
            if matches!(plan.io_fault(IoOp::Read, 0, e), Some(IoFault::Reset)) {
                resets += 1;
            }
        }
        let permille = resets * 1000 / trials as u32;
        assert!(
            (4..=30).contains(&permille),
            "reset rate {permille}permille far from configured 12"
        );
    }

    #[test]
    fn short_faults_never_clamp_to_zero() {
        let plan = ChaosPlan::seeded(11);
        for e in 0..4096 {
            if let Some(IoFault::Short(cap)) = plan.io_fault(IoOp::Read, 1, e) {
                assert!(cap >= 1);
            }
        }
    }
}
