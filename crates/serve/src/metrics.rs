//! The server's counter registry. Every event the server counts has one
//! [`Metric`] slot, bumped at exactly one site, and [`STATS`] declares
//! every key of the `Stats` response once, in wire order, next to where
//! its value is read. Two stores stay outside the registry: the
//! [`StoreStats`] counters live under the store lock beside the gauges
//! derived from store state, and the recorder's [`Counter`]s are the
//! runtime's own, read in-process as well as here.

use crate::server::Shared;
use crate::store::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use trilist_core::Counter;

macro_rules! metrics {
    ($($metric:ident => $key:literal,)*) => {
        /// One server event counter.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum Metric {
            $($metric,)*
        }

        impl Metric {
            /// Every metric, in slot order.
            const ALL: [Metric; [$($key),*].len()] = [$(Metric::$metric),*];

            /// The metric's `Stats` key.
            fn key(self) -> &'static str {
                match self {
                    $(Metric::$metric => $key,)*
                }
            }
        }
    };
}

// Slot order is wire order: `STATS` exports and sums runs of consecutive
// slots.
metrics! {
    RequestsTotal => "requests_total",
    RequestsRegister => "requests_register",
    RequestsList => "requests_list",
    RequestsCount => "requests_count",
    RequestsAddEdges => "requests_add_edges",
    RequestsRemoveEdges => "requests_remove_edges",
    RequestsListNew => "requests_list_new",
    RequestsPredict => "requests_predict",
    RequestsExplain => "requests_explain",
    RequestsStats => "requests_stats",
    RequestsShutdown => "requests_shutdown",
    ResponsesError => "responses_error",
    AcceptErrors => "accept_errors",
    Admitted => "admission_admitted",
    Queued => "admission_queued",
    RejectedBusy => "admission_rejected_busy",
    RejectedCost => "admission_rejected_cost",
    DegradedDeadline => "admission_degraded_deadline",
    DegradedEvict => "admission_degraded_evict",
    ChaosShortReads => "chaos_short_reads",
    ChaosShortWrites => "chaos_short_writes",
    ChaosWouldBlocks => "chaos_would_blocks",
    ChaosEintrs => "chaos_eintrs",
    ChaosResets => "chaos_resets",
    ChaosStalls => "chaos_stalls",
    ChaosPanics => "chaos_panics",
    ChaosGaugeSpikes => "chaos_gauge_spikes",
    ChaosDeadlineSkews => "chaos_deadline_skews",
}

/// The registry's values: one relaxed atomic per [`Metric`].
pub(crate) struct Metrics([AtomicU64; Metric::ALL.len()]);

impl Metrics {
    pub(crate) fn new() -> Metrics {
        Metrics(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    /// Counts one event.
    pub(crate) fn bump(&self, metric: Metric) {
        self.0[metric as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Where `Stats` values are read. Ranges name their first and last
/// member and run in declaration order.
enum Field {
    /// Registry slots, each under its own key.
    Slots(Metric, Metric),
    /// Chaos slots, exported only while a chaos plan is armed.
    Chaos(Metric, Metric),
    /// A derived aggregate: the sum of a range of registry slots.
    Sum(&'static str, Metric, Metric),
    /// Recorder counters, keyed `recorder_<name>`.
    Recorder(Counter, Counter),
    /// Server state read at export time.
    Read(&'static str, fn(&Shared, &StoreStats) -> u64),
}

use Field::{Chaos, Read, Recorder, Slots, Sum};
use Metric::*;

/// The layout of the `Stats` response, in the stable wire order clients
/// and tests rely on: requests, admission, cache, gauge, chaos, then
/// recorder telemetry.
const STATS: &[Field] = &[
    Slots(RequestsTotal, RejectedCost),
    Read("admission_inflight", |sh, _| sh.admission.inflight() as u64),
    Slots(DegradedDeadline, DegradedEvict),
    Read("cache_hits", |_, s| s.hits),
    Read("cache_misses", |_, s| s.misses),
    Read("cache_evictions", |_, s| s.evictions),
    Read("cache_cold_evictions", |_, s| s.cold_evictions),
    Read("cache_entries", |_, s| s.entries),
    Read("cache_bytes", |_, s| s.bytes),
    Read("plans_cached", |_, s| s.plans),
    Read("plan_bytes", |_, s| s.plan_bytes),
    Read("graphs_registered", |_, s| s.graphs),
    Read("delta_runs", |_, s| s.delta_runs),
    Read("delta_edges", |_, s| s.delta_edges),
    Read("delta_bytes", |_, s| s.delta_bytes),
    Read("retained_segments", |_, s| s.retained_segments),
    Read("segment_bytes", |_, s| s.segment_bytes),
    Read("epoch_pins", |_, s| s.epoch_pins),
    Read("compactions", |_, s| s.compactions),
    Read("gauge_bytes", |sh, _| sh.gauge.used()),
    Read("memory_ceiling_bytes", |sh, _| {
        sh.cfg.memory_bytes.unwrap_or(0)
    }),
    Chaos(ChaosShortReads, ChaosDeadlineSkews),
    Recorder(Counter::IntersectPaper, Counter::IntersectStamp),
    Sum(
        "recorder_serve_degradations",
        DegradedDeadline,
        DegradedEvict,
    ),
    Sum(
        "recorder_chaos_injections",
        ChaosShortReads,
        ChaosDeadlineSkews,
    ),
    Recorder(Counter::PlanEvaluations, Counter::PlanPick),
    Read("recorder_spans", |sh, _| sh.recorder.span_count()),
    Read("recorder_span_ns", |sh, _| sh.recorder.span_total_ns()),
];

/// The `Stats` response: one pass over [`STATS`]. Slots are read once
/// up front, so each derived sum equals the detail slots exported beside
/// it.
pub(crate) fn stats_fields(shared: &Shared) -> Vec<(String, u64)> {
    let slots = shared
        .metrics
        .0
        .each_ref()
        .map(|a| a.load(Ordering::Relaxed));
    let store = shared.store.stats();
    let mut out = Vec::new();
    for field in STATS {
        match *field {
            Chaos(..) if shared.cfg.chaos.is_none() => {}
            Slots(first, last) | Chaos(first, last) => out.extend(
                Metric::ALL[first as usize..=last as usize]
                    .iter()
                    .map(|&m| (m.key().to_string(), slots[m as usize])),
            ),
            Sum(key, first, last) => out.push((
                key.into(),
                slots[first as usize..=last as usize].iter().sum(),
            )),
            Recorder(first, last) => out.extend(
                Counter::ALL[first.index()..=last.index()]
                    .iter()
                    .map(|&c| (format!("recorder_{}", c.name()), shared.recorder.counter(c))),
            ),
            Read(key, read) => out.push((key.into(), read(shared, &store))),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_and_recorder_counter_is_exported_once() {
        let (mut metrics, mut counters) = (vec![], vec![]);
        for field in STATS {
            match *field {
                Slots(first, last) | Chaos(first, last) => {
                    metrics.extend(first as usize..=last as usize)
                }
                Recorder(first, last) => counters.extend(first.index()..=last.index()),
                Sum(..) | Read(..) => {}
            }
        }
        assert_eq!(metrics, (0..Metric::ALL.len()).collect::<Vec<_>>());
        counters.sort_unstable();
        assert_eq!(counters, (0..Counter::COUNT).collect::<Vec<_>>());
    }
}
