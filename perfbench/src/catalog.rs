//! Every metric the benchmark reports, declared once. `BENCHMARK.json`
//! lists the same names (a test holds the two together).

use crate::report::Metric;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the service or library sees. Every
/// workload reports each of them, and none is ever 0.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("paper_mops_per_s", "Mops/s"),
    ("setup_s", "s"),
    ("resident_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// The mix and churn request shapes a per-shape metric is keyed by.
pub const MIX_SHAPES: [&str; 8] = [
    "list.T1.desc.paper",
    "count.E4.crr.adaptive",
    "list.E1.desc.adaptive",
    "count.T2.rr.paper",
    "count.E1.desc.bitset",
    "list.plan",
    "predict.T1.desc",
    "stats",
];

pub const CHURN_SHAPES: [&str; 5] = [
    "edit.remove",
    "edit.add",
    "list_new",
    "count.E1.desc.adaptive",
    "list.T1.desc.paper",
];

pub const METHODS: [&str; 4] = ["T1", "T2", "E1", "E4"];
pub const POLICIES: [&str; 3] = ["paper", "adaptive", "bitset"];
pub const LAYOUTS: [&str; 2] = ["plain", "compressed"];
pub const KERNEL_KINDS: [&str; 6] = ["paper", "branchless", "gallop", "bitmap", "bitset", "stamp"];

/// Span layers of the traced replay.
pub const LAYERS: [&str; 20] = [
    "request",
    "client.encode",
    "protocol.decode",
    "store.register",
    "store.plan",
    "store.prepare",
    "order.relabel",
    "order.orient",
    "oracle.build",
    "kernel.build",
    "compressed.build",
    "model.plan",
    "admission.price",
    "admission.admit",
    "resilient.execute",
    "store.edit",
    "store.delta_window",
    "delta.list_new",
    "protocol.encode",
    "protocol.client_decode",
];

/// Shapes that get a socket-minus-replay residual (`stats` is answered
/// from live counters and is not replayed).
fn residual_shapes() -> Vec<&'static str> {
    let mut v: Vec<&str> = MIX_SHAPES
        .iter()
        .copied()
        .filter(|s| *s != "stats")
        .collect();
    for s in CHURN_SHAPES {
        if !v.contains(&s) {
            v.push(s);
        }
    }
    v
}

/// Shapes that execute a listing run.
fn listing_shapes() -> Vec<&'static str> {
    residual_shapes()
        .into_iter()
        .filter(|s| s.starts_with("list") || s.starts_with("count"))
        .collect()
}

/// Per-layer metrics. A workload that does not exercise a layer reports
/// it as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for s in residual_shapes() {
        add(format!("event_loop.residual_us.{s}"), "us");
    }
    add("protocol.decode_us".into(), "us");
    add("protocol.encode_us".into(), "us");
    add("protocol.client_decode_us".into(), "us");
    add("protocol.response_kb".into(), "KB");
    add("admission.price_us".into(), "us");
    add("admission.admit_wait_us".into(), "us");
    add("admission.queued_share".into(), "share");
    add("admission.rejected_share".into(), "share");
    add("store.prepare_hit_us".into(), "us");
    add("store.hit_ratio".into(), "share");
    add("store.plan_us".into(), "us");
    add("store.prepare_miss_ms".into(), "ms");
    add("order.relabel_ms".into(), "ms");
    add("order.orient_ms".into(), "ms");
    add("oracle.build_ms".into(), "ms");
    add("kernel.build_ms".into(), "ms");
    add("compressed.build_ms".into(), "ms");
    add("store.edit_ms".into(), "ms");
    add("store.delta_window_us".into(), "us");
    add("store.compactions".into(), "count");
    add("delta.list_new_ms".into(), "ms");
    add("delta.ops_per_new_edge".into(), "count");
    for s in listing_shapes() {
        add(format!("resilient.execute_ms.{s}"), "ms");
    }
    add("resilient.chunks_per_run".into(), "count");
    add("resilient.worker_idle_share".into(), "share");
    add("resilient.span_ms_per_req".into(), "ms");
    add("resilient.client_time_share".into(), "share");
    add("resilient.paper_ops_per_req".into(), "count");
    for m in METHODS {
        for p in POLICIES {
            for l in LAYOUTS {
                add(format!("kernel.ns_per_op.{m}.{p}.{l}"), "ns");
            }
        }
    }
    for k in KERNEL_KINDS {
        add(format!("kernel.calls.{k}"), "count");
    }
    add("kernel.oracle_hit_ratio".into(), "share");
    for p in POLICIES {
        add(format!("kernel.bytes.{p}"), "MB");
    }
    add("compressed.bytes_ratio".into(), "ratio");
    for m in METHODS {
        for p in POLICIES {
            add(format!("compressed.slowdown.{m}.{p}"), "ratio");
        }
    }
    add("model.plan_ms".into(), "ms");
    add("trace.coverage_min".into(), "share");
    add("trace.coverage_mean".into(), "share");
    add("trace.overhead_share".into(), "share");
    for l in LAYERS {
        add(format!("trace.self_us.{l}"), "us");
    }
    v
}

/// Values a workload measured, keyed by metric name, with sample counts.
#[derive(Default)]
pub struct Values(BTreeMap<String, (f64, u64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: u64) {
        self.0.insert(name.into(), (value, samples));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// The catalog's metrics in catalog order. End-to-end metrics a
    /// workload failed to produce come back as `Err` names; per-layer
    /// metrics it did not exercise read 0 with 0 samples.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, Vec<String>> {
        let mut missing = Vec::new();
        let mut out = Vec::new();
        for (name, unit) in END_TO_END {
            match self.0.get(name) {
                Some(&(v, n)) if v.is_finite() && v > 0.0 => {
                    out.push(Metric::new(name, unit, v, n))
                }
                _ => missing.push(name.to_string()),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let (v, n) = self
                    .0
                    .get(&name)
                    .copied()
                    .filter(|(v, _)| v.is_finite())
                    .unwrap_or((0.0, 0));
                Metric::new(name, unit, v, n)
            })
            .collect()
    }

    /// Measured values outside the catalog (reported for reading only).
    pub fn extras(&self) -> Vec<Metric> {
        let known: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        self.0
            .iter()
            .filter(|(k, _)| !known.contains(k))
            .map(|(k, &(v, n))| Metric::new(k.clone(), "", v, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n:?}");
            assert!(n.len() <= 64, "{n:?} is longer than 64");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    /// The catalog and `BENCHMARK.json` name the same metrics, in order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // a bare copy of the benchmark directory has no root file
        };
        let names_in = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layers);
    }
}
