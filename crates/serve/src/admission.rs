//! Admission control: a concurrency gate with a bounded wait queue, plus
//! a cost-model price ceiling.
//!
//! Requests are priced *before* they run, with the paper's own unified
//! cost model (Proposition 4 via [`trilist_model::price_request`]): the
//! prepared relabeling gives the degrees-by-label, one O(n) pass gives
//! expected operations, and anything over the configured ceiling is
//! rejected with the price attached — the model doing load shedding, not
//! just analysis. Under the ceiling, a request must still win an
//! execution slot: at most `max_inflight` run concurrently, at most
//! `max_queue` wait, and everything beyond that is rejected as busy
//! (closed-loop clients see backpressure instead of unbounded latency).

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use trilist_model::RequestPrice;

/// Admission knobs.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Requests executing concurrently (clamped to at least 1).
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot; beyond this, reject busy.
    pub max_queue: usize,
    /// Expected-operations ceiling from the cost model; `None` disables
    /// price rejections.
    pub max_predicted_ops: Option<f64>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 4,
            max_queue: 16,
            max_predicted_ops: None,
        }
    }
}

/// Why a request was not admitted.
#[derive(Clone, Debug, PartialEq)]
pub enum Rejection {
    /// All execution slots and all queue positions are taken.
    Busy {
        /// The configured concurrency limit.
        max_inflight: usize,
        /// The configured queue bound.
        max_queue: usize,
    },
    /// The cost model priced the request above the ceiling.
    TooExpensive {
        /// Model-predicted total operations.
        predicted_ops: f64,
        /// The configured ceiling.
        ceiling: f64,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Busy {
                max_inflight,
                max_queue,
            } => write!(f, "busy: {max_inflight} in flight and {max_queue} queued"),
            Rejection::TooExpensive {
                predicted_ops,
                ceiling,
            } => write!(
                f,
                "predicted {predicted_ops:.0} operations exceeds ceiling {ceiling:.0}"
            ),
        }
    }
}

#[derive(Default)]
struct Slots {
    inflight: usize,
    waiting: usize,
}

/// The gate. One per server.
pub struct Admission {
    cfg: AdmissionConfig,
    slots: Mutex<Slots>,
    freed: Condvar,
}

fn lock(m: &Mutex<Slots>) -> MutexGuard<'_, Slots> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Admission {
    /// A fresh gate.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            slots: Mutex::new(Slots::default()),
            freed: Condvar::new(),
        }
    }

    /// Applies the price ceiling. Call before [`Admission::admit`] so an
    /// over-budget request never occupies a slot or queue position.
    pub fn check_price(&self, price: &RequestPrice) -> Result<(), Rejection> {
        if let Some(ceiling) = self.cfg.max_predicted_ops {
            if price.exceeds(ceiling) {
                return Err(Rejection::TooExpensive {
                    predicted_ops: price.total_ops,
                    ceiling,
                });
            }
        }
        Ok(())
    }

    /// Claims an execution slot, waiting in the bounded queue if all
    /// slots are taken. The returned [`Permit`] frees the slot on drop and
    /// tells whether the request waited.
    pub fn admit(&self) -> Result<Permit<'_>, Rejection> {
        let max_inflight = self.cfg.max_inflight.max(1);
        let mut slots = lock(&self.slots);
        let waited = slots.inflight >= max_inflight;
        if waited {
            if slots.waiting >= self.cfg.max_queue {
                return Err(self.shed_busy());
            }
            slots.waiting += 1;
            while slots.inflight >= max_inflight {
                slots = self
                    .freed
                    .wait(slots)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            slots.waiting -= 1;
        }
        slots.inflight += 1;
        Ok(Permit { gate: self, waited })
    }

    /// The [`Rejection::Busy`] [`Admission::admit`] answers with a full
    /// queue. The event loop's executor sheds at submit time, before a
    /// worker is occupied, and answers with this same rejection, so the
    /// wire message does not depend on where the request was shed.
    pub fn shed_busy(&self) -> Rejection {
        Rejection::Busy {
            max_inflight: self.cfg.max_inflight.max(1),
            max_queue: self.cfg.max_queue,
        }
    }

    /// Fraction of combined capacity (execution slots plus queue
    /// positions) currently occupied, in `0..=1` — the queue half of the
    /// overload-pressure signal the degradation ladder reads.
    pub fn fill(&self) -> f64 {
        let cap = (self.cfg.max_inflight.max(1) + self.cfg.max_queue) as f64;
        let slots = lock(&self.slots);
        ((slots.inflight + slots.waiting) as f64 / cap).min(1.0)
    }

    /// Requests executing right now.
    pub fn inflight(&self) -> usize {
        lock(&self.slots).inflight
    }
}

/// An execution slot; dropping it wakes one queued waiter.
pub struct Permit<'a> {
    gate: &'a Admission,
    waited: bool,
}

impl Permit<'_> {
    /// Whether the request waited in the queue before it was admitted.
    pub fn waited(&self) -> bool {
        self.waited
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut slots = lock(&self.gate.slots);
        slots.inflight = slots.inflight.saturating_sub(1);
        drop(slots);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn slots_queue_and_reject() {
        let gate = Admission::new(AdmissionConfig {
            max_inflight: 1,
            max_queue: 0,
            max_predicted_ops: None,
        });
        let p = gate.admit().unwrap();
        assert!(!p.waited());
        assert!(matches!(gate.admit(), Err(Rejection::Busy { .. })));
        assert_eq!(gate.admit().err(), Some(gate.shed_busy()));
        assert_eq!(gate.inflight(), 1);
        drop(p);
        assert_eq!(gate.inflight(), 0);
        let p2 = gate.admit().unwrap();
        assert!(!p2.waited());
        assert_eq!(gate.inflight(), 1);
    }

    #[test]
    fn queued_waiter_runs_after_release() {
        let gate = std::sync::Arc::new(Admission::new(AdmissionConfig {
            max_inflight: 1,
            max_queue: 4,
            max_predicted_ops: None,
        }));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let permit = gate.admit().unwrap();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let gate = std::sync::Arc::clone(&gate);
                let peak = std::sync::Arc::clone(&peak);
                std::thread::spawn(move || {
                    let p = gate.admit().expect("queue has room");
                    peak.fetch_max(gate.inflight(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                    p.waited()
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        // one slot taken and three waiters, out of 1 + 4 places
        assert_eq!(gate.fill(), 0.8, "all three wait");
        assert!(!permit.waited());
        drop(permit);
        let waited: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(waited, [true; 3], "all three waited");
        assert_eq!(peak.load(Ordering::Relaxed), 1, "never more than 1 slot");
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn price_ceiling_rejects_with_the_price() {
        let gate = Admission::new(AdmissionConfig {
            max_inflight: 4,
            max_queue: 4,
            max_predicted_ops: Some(100.0),
        });
        let cheap = RequestPrice {
            per_node: 1.0,
            total_ops: 99.0,
            n: 99,
        };
        let dear = RequestPrice {
            per_node: 2.0,
            total_ops: 200.0,
            n: 100,
        };
        assert!(gate.check_price(&cheap).is_ok());
        match gate.check_price(&dear) {
            Err(Rejection::TooExpensive {
                predicted_ops,
                ceiling,
            }) => {
                assert_eq!(predicted_ops, 200.0);
                assert_eq!(ceiling, 100.0);
            }
            other => panic!("expected price rejection, got {other:?}"),
        }
        // a priced-out request never takes a slot or a queue position
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.fill(), 0.0);
    }
}
