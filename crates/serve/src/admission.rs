//! Admission control: execution slots with one bounded wait queue, plus
//! a cost-model price ceiling.
//!
//! Requests are priced *before* they run, with the paper's own unified
//! cost model (Proposition 4 via [`trilist_model::price_request`]): the
//! prepared relabeling gives the degrees-by-label, one O(n) pass gives
//! expected operations, and anything over the configured ceiling is
//! rejected with the price attached — the model doing load shedding, not
//! just analysis. Under the ceiling, a request must hold an execution
//! slot: at most `max_inflight` run concurrently, at most `max_queue`
//! wait, and everything beyond that is rejected as busy (closed-loop
//! clients see backpressure instead of unbounded latency).
//!
//! Nothing here blocks: a priced request waits only in the event loop's
//! priced lane, which takes a queue place as it submits a job
//! ([`Admission::enqueue`]) and turns it into a slot as one of its
//! `max_inflight` workers dequeues the job ([`Admission::start`]).

use crate::lock;
use std::sync::Mutex;
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

/// Slots in use and queue places, one record under one lock: the lane's
/// shed check, [`Admission::fill`] and [`Admission::inflight`] read it.
#[derive(Default)]
struct Slots {
    inflight: usize,
    queued: usize,
}

/// The gate. One per server.
pub struct Admission {
    cfg: AdmissionConfig,
    slots: Mutex<Slots>,
}

impl Admission {
    /// A fresh gate.
    pub fn new(mut cfg: AdmissionConfig) -> Self {
        cfg.max_inflight = cfg.max_inflight.max(1);
        let slots = Mutex::default();
        Admission { cfg, slots }
    }

    /// Applies the price ceiling. Call before a request runs so an
    /// over-budget request never executes.
    pub fn check_price(&self, price: &RequestPrice) -> Result<(), Rejection> {
        match self.cfg.max_predicted_ops {
            Some(ceiling) if price.exceeds(ceiling) => Err(Rejection::TooExpensive {
                predicted_ops: price.total_ops,
                ceiling,
            }),
            _ => Ok(()),
        }
    }

    /// Claims a free execution slot, or answers busy: never waits. A slot
    /// is free when nobody holds it and no queued request is owed it. The
    /// returned [`Permit`] frees the slot on drop.
    pub fn admit(&self) -> Result<Permit<'_>, Rejection> {
        let mut slots = lock(&self.slots);
        if slots.inflight + slots.queued >= self.cfg.max_inflight {
            return Err(self.shed_busy());
        }
        slots.inflight += 1;
        Ok(Permit {
            gate: self,
            waited: false,
        })
    }

    /// Takes a queue place, or answers busy once `max_inflight +
    /// max_queue` places are taken. `Ok(true)` means the request waits:
    /// every slot was held or owed to a request queued ahead of it.
    pub(crate) fn enqueue(&self) -> Result<bool, Rejection> {
        let mut slots = lock(&self.slots);
        let taken = slots.inflight + slots.queued;
        if taken >= self.cfg.max_inflight + self.cfg.max_queue {
            return Err(self.shed_busy());
        }
        slots.queued += 1;
        Ok(taken >= self.cfg.max_inflight)
    }

    /// Turns a queue place into a slot as one of the priced lane's
    /// `max_inflight` workers dequeues its job, so a slot is always free.
    pub(crate) fn start(&self, waited: bool) -> Permit<'_> {
        let mut slots = lock(&self.slots);
        slots.queued = slots.queued.saturating_sub(1);
        slots.inflight += 1;
        Permit { gate: self, waited }
    }

    /// The [`Rejection::Busy`] answered when every place is taken.
    pub fn shed_busy(&self) -> Rejection {
        Rejection::Busy {
            max_inflight: self.cfg.max_inflight,
            max_queue: self.cfg.max_queue,
        }
    }

    /// Fraction of the `max_inflight + max_queue` places taken, in `0..=1`.
    pub fn fill(&self) -> f64 {
        self.fill_besides(0)
    }

    fn fill_besides(&self, own: usize) -> f64 {
        let cap = (self.cfg.max_inflight + self.cfg.max_queue) as f64;
        let slots = lock(&self.slots);
        let taken = (slots.inflight + slots.queued).saturating_sub(own);
        (taken as f64 / cap).min(1.0)
    }

    /// Requests holding a slot right now.
    pub fn inflight(&self) -> usize {
        lock(&self.slots).inflight
    }
}

/// An execution slot; dropping it frees the slot.
pub struct Permit<'a> {
    gate: &'a Admission,
    waited: bool,
}

impl Permit<'_> {
    /// Whether the request waited in the queue for its slot.
    pub fn waited(&self) -> bool {
        self.waited
    }

    /// [`Admission::fill`] without this slot's own place: the queue half
    /// of the pressure the degradation ladder reads.
    pub fn fill(&self) -> f64 {
        self.gate.fill_besides(1)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut slots = lock(&self.gate.slots);
        slots.inflight = slots.inflight.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(gate.enqueue().err(), Some(gate.shed_busy()));
        assert_eq!(gate.inflight(), 1);
        drop(p);
        assert_eq!(gate.inflight(), 0);
        let p2 = gate.admit().unwrap();
        assert!(!p2.waited());
        assert_eq!(gate.inflight(), 1);
    }

    #[test]
    fn queued_waiter_runs_after_release() {
        let gate = Admission::new(AdmissionConfig {
            max_inflight: 1,
            max_queue: 4,
            max_predicted_ops: None,
        });
        let permit = gate.admit().unwrap();
        let waits: Vec<bool> = (0..3)
            .map(|_| gate.enqueue().expect("queue has room"))
            .collect();
        // one slot taken and three queued, out of 1 + 4 places
        assert_eq!(gate.fill(), 0.8, "all three wait");
        assert_eq!(permit.fill(), 0.6, "the holder does not count itself");
        assert_eq!(waits, [true; 3], "all three waited");
        assert!(!permit.waited());
        drop(permit);
        // the freed slot is owed to the queue, not to a newcomer
        assert_eq!(gate.admit().err(), Some(gate.shed_busy()));
        for queued in (0..3).rev() {
            let p = gate.start(true);
            assert!(p.waited());
            assert_eq!(gate.inflight(), 1, "never more than 1 slot");
            assert_eq!(gate.fill(), (1 + queued) as f64 / 5.0);
        }
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.fill(), 0.0);
    }

    #[test]
    fn a_place_waits_only_when_every_slot_is_taken_or_owed() {
        let gate = Admission::new(AdmissionConfig {
            max_inflight: 2,
            max_queue: 1,
            max_predicted_ops: None,
        });
        assert_eq!(gate.enqueue(), Ok(false));
        assert_eq!(gate.enqueue(), Ok(false));
        assert_eq!(gate.enqueue(), Ok(true), "both slots are owed");
        assert_eq!(gate.enqueue().err(), Some(gate.shed_busy()));
        let first = gate.start(false);
        drop(gate.start(false));
        assert_eq!(gate.enqueue(), Ok(true), "one slot held, one owed");
        drop(first);
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
