//! Property-based invariants for the observability layer (proptest):
//! log2 bucketing is total and monotone over all of `u64`, counter
//! snapshot merging is associative and commutative, and the hand-rolled
//! measured-vs-model JSON writer emits exactly the pinned bytes.

use proptest::prelude::*;
use trilist::core::{
    log2_bucket, Counter, CounterSnapshot, MeasuredVsModel, MethodMeasurement, HIST_BUCKETS,
};

/// Strategy: an arbitrary counter snapshot.
fn arb_snapshot() -> impl Strategy<Value = CounterSnapshot> {
    proptest::collection::vec(any::<u64>(), Counter::COUNT).prop_map(|v| {
        let mut s = CounterSnapshot::default();
        s.counts.copy_from_slice(&v);
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn log2_bucket_total_and_monotone(v in any::<u64>(), w in any::<u64>()) {
        let (bv, bw) = (log2_bucket(v), log2_bucket(w));
        prop_assert!(bv < HIST_BUCKETS, "bucket {bv} out of range for {v}");
        prop_assert!(bw < HIST_BUCKETS);
        if v <= w {
            prop_assert!(bv <= bw, "bucketing must be monotone: {v}→{bv}, {w}→{bw}");
        }
        // the bucket is the bit length: 2^(b-1) <= v < 2^b for v > 0
        if v > 0 {
            let b = bv as u32;
            prop_assert!(v >= 1u64.checked_shl(b - 1).unwrap_or(u64::MAX));
            prop_assert!(b == 64 || v < 1u64 << b);
        } else {
            prop_assert_eq!(bv, 0);
        }
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative(
        a in arb_snapshot(),
        b in arb_snapshot(),
        c in arb_snapshot(),
    ) {
        let ab = a.merge(&b);
        prop_assert_eq!(ab, b.merge(&a), "merge must commute");
        prop_assert_eq!(ab.merge(&c), a.merge(&b.merge(&c)), "merge must associate");
        let zero = CounterSnapshot::default();
        prop_assert_eq!(a.merge(&zero), a, "zero is the identity");
    }
}

/// `to_json` is the report's only codec, so its bytes are pinned: labels
/// escape `"`, `\`, newlines and control characters and keep non-ASCII as
/// is; an integral float keeps a `.0` and a non-finite one is `null`.
#[test]
fn measured_vs_model_json_bytes_are_pinned() {
    let mut entry =
        MethodMeasurement::derive("a\"b\\c\nd", "\u{1}é", 1_000, 2_000, 4_000, 3, 7, 0.5);
    assert_eq!(entry.ns_per_op, 2.0);
    entry.load_balance_efficiency = f64::NAN;
    let report = MeasuredVsModel {
        entries: vec![entry],
    };
    let want = r#"{
  "version": 1,
  "entries": [
    {"method": "a\"b\\c\nd", "policy": "\u0001é", "modeled_ops": 1000, "measured_ns": 2000, "wall_ns": 4000, "spans": 3, "triangles": 7, "ns_per_op": 2.0, "load_balance_efficiency": null}
  ]
}
"#;
    assert_eq!(report.to_json(), want);
}
