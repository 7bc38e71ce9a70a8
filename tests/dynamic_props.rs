//! Property suite for the dynamic-graph layer (raised by the weekly
//! `PROPTEST_CASES` run):
//!
//! 1. **Per-batch order independence** — a [`DeltaRun`] normalizes its
//!    batch to canonical bytes, so any input ordering of the same edges
//!    produces identical runs, identical net windows, and identical
//!    materialized graphs — through insert, delete, and reinsert churn.
//! 2. **Epoch pins never leak** — the store's pin refcount gauge reads
//!    exactly the live guards and returns to zero when they drop, and the
//!    resting memory gauge equals the sum of the cache's own accounting
//!    (prepared bytes + plan bytes + delta bytes + segment bytes) — no
//!    charge survives its owner.
//! 3. **Compaction is observationally invisible** — a reader pinned to an
//!    epoch sees byte-identical graphs and byte-identical prepared
//!    artifacts before and after a forced compaction, even though the
//!    segment serving that epoch may have changed underneath.
//! 4. **The row splice equals an independent rebuild** — over every window
//!    of a random run sequence, [`materialize`] (which splices only the
//!    touched CSR rows) equals `Graph::from_edges` of the edge set folded
//!    run by run in a `BTreeSet`, through toggled-back edges, emptied rows,
//!    previously isolated nodes and the end nodes `0` and `n − 1`.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use trilist::core::{materialize, net_changes, DeltaRun, MemoryGauge};
use trilist::graph::Graph;
use trilist::order::OrderFamily;
use trilist::serve::{GraphStore, StoreConfig};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A reproducible G(n, p) edge list.
fn gnp_edges(n: u32, p: f64, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// `k` edges absent from `present`, in deterministic discovery order.
fn absent_edges(n: u32, present: &BTreeSet<(u32, u32)>, k: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    'outer: for u in 0..n {
        for v in (u + 1)..n {
            if !present.contains(&(u, v)) {
                out.push((u, v));
                if out.len() == k {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// Three edit batches over `base` — insert, remove (half the inserts plus
/// base edges), reinsert (the removed base edges) — with every batch's
/// edge list permuted by `shuffle_seed` before validation. Returns the
/// runs plus the membership mirror after all three.
type Churn = (Vec<DeltaRun>, BTreeSet<(u32, u32)>);

fn churn_batches(base: &Graph, shuffle_seed: u64) -> Option<Churn> {
    let n = base.n();
    let mut present: BTreeSet<(u32, u32)> = base.edges().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);

    let fresh = absent_edges(n as u32, &present, 6);
    let base_victims: Vec<(u32, u32)> = present.iter().take(3).copied().collect();
    if fresh.len() < 2 || base_victims.is_empty() {
        return None; // dense or empty corner; nothing to churn
    }

    let mut runs = Vec::new();
    let mut batch = fresh.clone();
    batch.shuffle(&mut rng);
    let run = DeltaRun::insert_batch(n, &batch, |u, v| present.contains(&(u, v))).unwrap();
    present.extend(fresh.iter().copied());
    runs.push(run);

    let mut removal: Vec<(u32, u32)> = fresh[..fresh.len() / 2].to_vec();
    removal.extend(base_victims.iter().copied());
    removal.shuffle(&mut rng);
    let run = DeltaRun::remove_batch(n, &removal, |u, v| present.contains(&(u, v))).unwrap();
    for e in &removal {
        present.remove(e);
    }
    runs.push(run);

    let mut reinsert = base_victims.clone();
    reinsert.shuffle(&mut rng);
    let run = DeltaRun::insert_batch(n, &reinsert, |u, v| present.contains(&(u, v))).unwrap();
    present.extend(reinsert.iter().copied());
    runs.push(run);

    Some((runs, present))
}

/// Runs plus the edge set at each epoch (`epochs[0]` is the base).
type Epochs = (Vec<DeltaRun>, Vec<BTreeSet<(u32, u32)>>);

/// Up to `runs` alternating insert/remove batches over `base` (in which
/// `iso` has no edges), plus the edge set at every epoch, folded run by run
/// without the delta layer. Inserts re-add edges the previous remove took
/// and always try `(0, n − 1)` and an edge at `iso`; removes take back
/// edges the previous insert added and empty the whole row of one of
/// `0`, `n − 1`, `iso` or a random node.
fn toggle_runs(base: &Graph, iso: u32, runs: usize, seed: u64) -> Epochs {
    let n = base.n() as u32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut epochs = vec![base.edges().collect::<BTreeSet<(u32, u32)>>()];
    let mut out: Vec<DeltaRun> = Vec::new();
    for r in 0..runs {
        let present = epochs.last().unwrap().clone();
        let prev: Vec<(u32, u32)> = out
            .last()
            .map(|run| [run.inserts(), run.removes()].concat())
            .unwrap_or_default();
        let mut batch: BTreeSet<(u32, u32)> =
            prev.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        let insert = r % 2 == 0;
        if insert {
            let x = rng.gen_range(0..n);
            batch.extend([(0, n - 1), (iso.min(x), iso.max(x))]);
            for _ in 0..rng.gen_range(0..4) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                batch.insert((u.min(v), u.max(v)));
            }
            batch.retain(|&(u, v)| u != v && !present.contains(&(u, v)));
        } else {
            let victim = [0, n - 1, iso, rng.gen_range(0..n)][rng.gen_range(0..4)];
            batch.extend(present.iter().filter(|&&(u, v)| u == victim || v == victim));
            batch.extend(present.iter().copied().filter(|_| rng.gen_bool(0.1)));
            batch.retain(|e| present.contains(e));
        }
        if batch.is_empty() {
            continue;
        }
        // fed reversed and shuffled: a batch normalizes to (min, max) order
        let mut edges: Vec<(u32, u32)> = batch.iter().map(|&(u, v)| (v, u)).collect();
        edges.shuffle(&mut rng);
        let member = |u: u32, v: u32| present.contains(&(u, v));
        let mut next = present.clone();
        let run = if insert {
            next.extend(batch.iter().copied());
            DeltaRun::insert_batch(n as usize, &edges, member).unwrap()
        } else {
            next.retain(|e| !batch.contains(e));
            DeltaRun::remove_batch(n as usize, &edges, member).unwrap()
        };
        out.push(run);
        epochs.push(next);
    }
    (out, epochs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    // Every window (a, b] of a random run sequence materializes, from an
    // independently built epoch-a graph, to exactly the graph
    // `from_edges` builds from the folded edge set at epoch b.
    #[test]
    fn splice_equals_independent_rebuild(
        n in 2u32..24,
        graph_seed in 0u64..1 << 48,
        edit_seed in 0u64..1 << 48,
        iso_pick in 0u32..1 << 16,
        runs in 1usize..7,
    ) {
        let iso = iso_pick % n;
        let base_edges: Vec<(u32, u32)> = gnp_edges(n, 0.3, graph_seed)
            .into_iter()
            .filter(|&(u, v)| u != iso && v != iso)
            .collect();
        let base = Graph::from_edges(n as usize, &base_edges).unwrap();
        let (runs, epochs) = toggle_runs(&base, iso, runs, edit_seed);
        let rebuilt = |e: usize| {
            let edges: Vec<(u32, u32)> = epochs[e].iter().copied().collect();
            Graph::from_edges(n as usize, &edges).unwrap()
        };
        for a in 0..epochs.len() {
            let from = rebuilt(a);
            for b in a..epochs.len() {
                prop_assert_eq!(
                    materialize(&from, runs[a..b].iter()),
                    rebuilt(b),
                    "window ({}, {}]",
                    a,
                    b
                );
            }
        }
    }

    // Any two permutations of the same edit sequence produce identical
    // runs, identical net windows, and identical materialized graphs.
    #[test]
    fn per_batch_edit_order_is_irrelevant(
        n in 6u32..24,
        graph_seed in 0u64..1 << 48,
        shuffle_a in 0u64..1 << 48,
        shuffle_b in 0u64..1 << 48,
    ) {
        let base = Graph::from_edges(n as usize, &gnp_edges(n, 0.3, graph_seed)).unwrap();
        let (Some((runs_a, mirror_a)), Some((runs_b, mirror_b))) =
            (churn_batches(&base, shuffle_a), churn_batches(&base, shuffle_b))
        else {
            return Ok(());
        };
        // Normalization makes the runs byte-identical, not merely
        // equivalent.
        prop_assert_eq!(&runs_a, &runs_b);
        prop_assert_eq!(net_changes(runs_a.iter()), net_changes(runs_b.iter()));
        let mat_a: BTreeSet<(u32, u32)> = materialize(&base, runs_a.iter()).edges().collect();
        let mat_b: BTreeSet<(u32, u32)> = materialize(&base, runs_b.iter()).edges().collect();
        prop_assert_eq!(&mat_a, &mat_b);
        // And the materialization matches the membership mirror exactly.
        prop_assert_eq!(&mat_a, &mirror_a);
        prop_assert_eq!(&mat_b, &mirror_b);
    }

    // Pin refcounts read exactly the live guards; once every guard (and
    // the store's own caches) is dropped, the resting gauge equals the
    // store's own accounting — nothing leaks.
    #[test]
    fn epoch_pins_and_gauge_charges_never_leak(
        n in 8u32..20,
        graph_seed in 0u64..1 << 48,
        pin_pattern in proptest::collection::vec(0u8..4, 1..6),
        compact_mid in 0u8..2,
    ) {
        let gauge = MemoryGauge::new();
        let store = GraphStore::new(StoreConfig::default(), gauge.clone());
        store.register("g", n, &gnp_edges(n, 0.3, graph_seed)).unwrap();
        let base: BTreeSet<(u32, u32)> = store.graph("g").unwrap().edges().collect();
        let adds = absent_edges(n, &base, 4);
        prop_assume!(adds.len() == 4);
        store.add_edges("g", &adds[..2]).unwrap();
        store.add_edges("g", &adds[2..]).unwrap();
        let victim = *base.iter().next().unwrap();
        store.remove_edges("g", &[victim]).unwrap();
        let latest = store.latest_epoch("g").unwrap();
        prop_assert_eq!(latest, 3);

        let pins: Vec<_> = pin_pattern
            .iter()
            .map(|&e| store.pin("g", Some(e as u64 % (latest + 1))).unwrap())
            .collect();
        prop_assert_eq!(store.stats().epoch_pins, pins.len() as u64);
        if compact_mid == 1 {
            store.compact_now("g").unwrap();
        }
        // A prepared entry and (under the default fixed mode) its plan
        // both charge the gauge; the invariant must hold with them live.
        store.prepare_at("g", OrderFamily::Descending, Some(1)).unwrap();
        prop_assert_eq!(store.stats().epoch_pins, pins.len() as u64);
        drop(pins);

        let stats = store.stats();
        prop_assert_eq!(stats.epoch_pins, 0);
        prop_assert_eq!(
            gauge.used(),
            stats.bytes + stats.plan_bytes + stats.delta_bytes + stats.segment_bytes
        );
    }

    // A pinned reader observes byte-identical artifacts across a forced
    // compaction: same materialized graph, same relabeling, same degree
    // table — the segment swap underneath is invisible.
    #[test]
    fn compaction_is_invisible_to_pinned_readers(
        n in 8u32..20,
        graph_seed in 0u64..1 << 48,
        pinned_epoch in 0u64..3,
    ) {
        // One cache slot, so the intervening prepare below evicts the
        // pinned-epoch entry and the post-compaction compare is against a
        // genuine rebuild, not a cache hit.
        let cfg = StoreConfig {
            max_entries: 1,
            ..StoreConfig::default()
        };
        let store = GraphStore::new(cfg, MemoryGauge::new());
        store.register("g", n, &gnp_edges(n, 0.3, graph_seed)).unwrap();
        let base: BTreeSet<(u32, u32)> = store.graph("g").unwrap().edges().collect();
        let adds = absent_edges(n, &base, 4);
        prop_assume!(adds.len() == 4 && base.len() >= 2);
        store.add_edges("g", &adds[..2]).unwrap();
        let victim = *base.iter().next().unwrap();
        store.remove_edges("g", &[victim]).unwrap();
        store.add_edges("g", &adds[2..]).unwrap();

        let _pin = store.pin("g", Some(pinned_epoch)).unwrap();
        let graph_before: BTreeSet<(u32, u32)> =
            store.graph_at("g", Some(pinned_epoch)).unwrap().edges().collect();
        let (prep_before, _, epoch) = store
            .prepare_at("g", OrderFamily::Descending, Some(pinned_epoch))
            .unwrap();
        prop_assert_eq!(epoch, pinned_epoch);

        let report = store.compact_now("g").unwrap();
        prop_assert!(report.compacted);

        let graph_after: BTreeSet<(u32, u32)> =
            store.graph_at("g", Some(pinned_epoch)).unwrap().edges().collect();
        prop_assert_eq!(&graph_before, &graph_after);
        // Flush the single cache slot, then rebuild at the pinned epoch
        // of the now-compacted store: the epoch-mixed prepare seed makes
        // the artifacts byte-identical no matter which segment served
        // the materialization.
        store.prepare_at("g", OrderFamily::Descending, None).unwrap();
        let (prep_after, hit, _) = store
            .prepare_at("g", OrderFamily::Descending, Some(pinned_epoch))
            .unwrap();
        prop_assert!(!hit, "the compare must exercise a rebuild");
        prop_assert_eq!(&prep_before.inverse, &prep_after.inverse);
        prop_assert_eq!(&prep_before.degrees_by_label, &prep_after.degrees_by_label);
        prop_assert_eq!(prep_before.plan, prep_after.plan);
    }
}
