//! Wire-level suite for the dynamic-graph frames: `AddEdges` /
//! `RemoveEdges` receipts must track the store's epoch ledger exactly,
//! `ListNewTriangles` must return precisely the scratch set difference
//! `T(b) \ T(a)` in original node IDs, and a resume chain must survive a
//! compaction swapping the serving segment mid-chain — byte-identical to
//! an uninterrupted run of the same window.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use trilist::core::{
    list_new_triangles_on, list_new_triangles_src, list_triangles, DeltaOpts, DeltaOutcome,
    GraphSource, KernelPolicy, Kernels, MemoryGauge, Method, RunBudget,
};
use trilist::graph::Graph;
use trilist::order::OrderFamily;
use trilist::serve::{
    Client, ClientError, DeltaParams, ErrorCode, GraphStore, ServeConfig, Server, StoreConfig,
};

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

/// The triangle set of an edge set, via a scratch in-process run (the
/// listed set is method- and ordering-independent).
fn scratch_triangles(n: u32, edges: &BTreeSet<(u32, u32)>) -> BTreeSet<(u32, u32, u32)> {
    let g = Graph::from_edges(n as usize, &edges.iter().copied().collect::<Vec<_>>()).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5C4A);
    list_triangles(&g, Method::E1, OrderFamily::Descending, &mut rng)
        .triangles
        .into_iter()
        .collect()
}

fn stat(fields: &[(String, u64)], name: &str) -> u64 {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("missing stats field {name}"))
        .1
}

#[test]
fn edit_receipts_track_the_epoch_ledger_and_reject_invalid_batches() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let edges = gnp_edges(30, 0.2, 0xED17);
    let m0 = edges.len() as u64;
    client.register_graph("g", 30, &edges).unwrap();

    let absent: Vec<(u32, u32)> = {
        let present: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
        (0..30u32)
            .flat_map(|u| ((u + 1)..30).map(move |v| (u, v)))
            .filter(|e| !present.contains(e))
            .take(4)
            .collect()
    };
    let info = client.add_edges("g", &absent[..3]).unwrap();
    assert_eq!(info.epoch, 1);
    assert_eq!(info.applied, 3);
    assert_eq!(info.m, m0 + 3);
    assert_eq!(info.delta_edges, 3);
    assert!(info.delta_ratio > 0.0);

    let info = client.remove_edges("g", &absent[..1]).unwrap();
    assert_eq!(info.epoch, 2);
    assert_eq!(info.applied, 1);
    assert_eq!(info.m, m0 + 2);

    // Whole-batch rejection: an already-present edge poisons the batch,
    // no epoch is created, and the error names the edge.
    let err = client.add_edges("g", &[absent[1], absent[2]]).unwrap_err();
    let ClientError::Server(frame) = err else {
        panic!("expected a typed server error");
    };
    assert_eq!(frame.code, ErrorCode::BadRequest);
    assert!(
        frame.message.contains("already present"),
        "{}",
        frame.message
    );
    assert_eq!(client.add_edges("g", &absent[..1]).unwrap().epoch, 3);

    // Removing a never-present edge and editing an unknown graph are
    // typed errors too.
    let err = client.remove_edges("g", &[absent[3]]).unwrap_err();
    let ClientError::Server(frame) = err else {
        panic!("expected a typed server error");
    };
    assert_eq!(frame.code, ErrorCode::BadRequest);
    let err = client.add_edges("nope", &absent[..1]).unwrap_err();
    let ClientError::Server(frame) = err else {
        panic!("expected a typed server error");
    };
    assert_eq!(frame.code, ErrorCode::UnknownGraph);

    let fields = client.stats().unwrap();
    assert_eq!(stat(&fields, "requests_add_edges"), 4);
    assert_eq!(stat(&fields, "requests_remove_edges"), 2);
    assert_eq!(stat(&fields, "delta_runs"), 3);

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn list_new_triangles_over_the_wire_is_exactly_the_scratch_set_difference() {
    let n = 60u32;
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let base = gnp_edges(n, 0.12, 0xD1F2);
    client.register_graph("g", n, &base).unwrap();

    let mut mirror: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    let before = mirror.clone();

    // Insert a dozen absent edges, remove a few originals, then reinsert
    // one removed edge — so the window holds net-new, net-removed, and
    // folded-away toggles at once.
    let adds: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .filter(|e| !mirror.contains(e))
        .take(12)
        .collect();
    client.add_edges("g", &adds).unwrap();
    mirror.extend(adds.iter().copied());
    let victims: Vec<(u32, u32)> = base[..4].to_vec();
    client.remove_edges("g", &victims).unwrap();
    for e in &victims {
        mirror.remove(e);
    }
    client.add_edges("g", &victims[..1]).unwrap();
    mirror.insert(victims[0]);

    let res = client
        .list_new(DeltaParams::new("g", 0, DeltaParams::LATEST))
        .unwrap();
    assert_eq!(res.from_epoch, 0);
    assert_eq!(res.to_epoch, 3, "LATEST resolves, never echoes");
    assert!(res.result.complete);
    // Net window bookkeeping: 12 new edges, 3 removed (one victim was
    // reinserted, folding away).
    assert_eq!(res.new_edges, 12);
    assert_eq!(res.removed_edges, 3);

    let t_before = scratch_triangles(n, &before);
    let t_after = scratch_triangles(n, &mirror);
    let expected: BTreeSet<(u32, u32, u32)> = t_after.difference(&t_before).copied().collect();
    assert!(!expected.is_empty(), "fixture must create triangles");
    let got: BTreeSet<(u32, u32, u32)> = res.result.triangles.iter().copied().collect();
    assert_eq!(got.len(), res.result.triangles.len(), "no duplicates");
    assert_eq!(got, expected, "new triangles must be exactly T(b) \\ T(a)");
    assert_eq!(res.result.cost.triangles, expected.len() as u64);

    // An inner window starting past the edits is empty but well-formed.
    let res = client.list_new(DeltaParams::new("g", 3, 3)).unwrap();
    assert!(res.result.complete && res.result.triangles.is_empty());
    assert_eq!((res.new_edges, res.removed_edges), (0, 0));

    // A reversed window is a typed error, not a panic.
    let err = client.list_new(DeltaParams::new("g", 3, 1)).unwrap_err();
    let ClientError::Server(frame) = err else {
        panic!("expected a typed server error");
    };
    assert_eq!(frame.code, ErrorCode::BadRequest);

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn resume_chain_across_a_forced_compaction_is_byte_identical() {
    // A vanishing compaction threshold: every edit batch nudges the
    // store's off-lane compactor, so the chain below is guaranteed to
    // have its serving segment swapped underneath it.
    let cfg = ServeConfig {
        store: StoreConfig {
            compact_ratio: 0.0001,
            ..StoreConfig::default()
        },
        ..ServeConfig::default()
    };
    let n = 70u32;
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let base = gnp_edges(n, 0.12, 0xC0DE);
    client.register_graph("g", n, &base).unwrap();

    let present: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    let adds: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .filter(|e| !present.contains(e))
        .take(16)
        .collect();
    client.add_edges("g", &adds[..14]).unwrap();
    client.remove_edges("g", &base[..3]).unwrap();
    let window_end = 2u64;

    // Reference: the whole window in one unbudgeted request.
    let reference = client
        .list_new(DeltaParams::new("g", 0, window_end))
        .unwrap();
    assert!(reference.result.complete);
    assert!(!reference.result.triangles.is_empty());

    // Interrupt: a 1-byte memory ceiling trips before the first chunk,
    // yielding a deterministic zero-progress partial whose resume token
    // still covers the entire window.
    let interrupted = client
        .list_new(DeltaParams {
            memory_bytes: 1,
            ..DeltaParams::new("g", 0, window_end)
        })
        .unwrap();
    assert!(!interrupted.result.complete);
    assert_eq!(interrupted.result.stop_reason, "memory budget exhausted");
    assert!(interrupted.result.chunks.is_empty());
    assert!(!interrupted.result.resume.is_empty());

    // Mid-chain mutation: an edit past the window end crosses the
    // vanishing ratio and nudges the compactor. Wait until a compaction
    // actually lands, so the continuation below provably reads from a
    // post-compaction segment.
    let compactions_before = stat(&client.stats().unwrap(), "compactions");
    let receipt = client.add_edges("g", &adds[14..]).unwrap();
    assert_eq!(receipt.epoch, 3);
    assert!(
        receipt.compacting,
        "the edit must nudge the compaction lane"
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if stat(&client.stats().unwrap(), "compactions") > compactions_before {
            break;
        }
        assert!(Instant::now() < deadline, "compaction never landed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Continue the chain against the *explicit* window end. Epochs never
    // renumber and the relabel seed is epoch-mixed, so the continuation
    // must complete the window byte-identically — cost and triangles —
    // even though the segment serving epoch 2 changed underneath it.
    let resumed = client
        .list_new(DeltaParams {
            resume: interrupted.result.resume.clone(),
            ..DeltaParams::new("g", 0, window_end)
        })
        .unwrap();
    assert!(resumed.result.complete);
    assert_eq!(resumed.result.cost, reference.result.cost);
    assert_eq!(resumed.result.triangles, reference.result.triangles);
    assert_eq!(resumed.result.chunks, reference.result.chunks);
    assert_eq!(resumed.to_epoch, window_end);

    // And the edits after the window end stay invisible to it: the
    // window bookkeeping is unchanged.
    assert_eq!(resumed.new_edges, reference.new_edges);
    assert_eq!(resumed.removed_edges, reference.removed_edges);

    client.shutdown().unwrap();
    server.join();
}

/// The EXPERIMENTS.md "delta ratio vs compaction cost" table: run with
///
/// ```text
/// cargo test --release --test serve_dynamic delta_ratio_vs -- --ignored --nocapture
/// ```
///
/// Operation counts are deterministic; only the compaction wall-clock
/// column is machine-dependent.
#[test]
#[ignore = "table generator for EXPERIMENTS.md, not a correctness gate"]
fn delta_ratio_vs_compaction_cost_table() {
    let n = 2000u32;
    let base = gnp_edges(n, 0.008, 0x7AB1E);
    let m0 = base.len();
    println!("| delta ratio | edits | net-new edges | delta ops | full-recompute ops | ops saved | compact wall (µs) |");
    println!("|---|---|---|---|---|---|---|");
    for ratio in [0.01f64, 0.05, 0.10, 0.25, 0.50] {
        // Autotune mode, so the compaction column includes the plan
        // re-derivation a production store pays.
        let cfg = StoreConfig {
            plan: trilist::serve::PlanMode::Autotune { rounds: 0 },
            ..StoreConfig::default()
        };
        let store = GraphStore::new(cfg, MemoryGauge::new());
        store.register("g", n, &base).unwrap();
        let mut present: BTreeSet<(u32, u32)> = base.iter().copied().collect();
        let edits = ((m0 as f64) * ratio).ceil() as usize;

        // Half inserts (uniform random absent pairs, the same degree
        // profile as the base), half removes, applied as two batches —
        // the shape an editing client produces.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xED17 ^ (ratio * 100.0) as u64);
        let adds: Vec<(u32, u32)> = {
            let mut picked = BTreeSet::new();
            while picked.len() < edits / 2 + 1 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && !present.contains(&(u.min(v), u.max(v))) {
                    picked.insert((u.min(v), u.max(v)));
                }
            }
            picked.into_iter().collect()
        };
        store.add_edges("g", &adds).unwrap();
        present.extend(adds.iter().copied());
        let removes: Vec<(u32, u32)> = base.iter().copied().take(edits / 2).collect();
        if !removes.is_empty() {
            store.remove_edges("g", &removes).unwrap();
            for e in &removes {
                present.remove(e);
            }
        }
        let to = store.latest_epoch("g").unwrap();

        let (net_new, _) = store.delta_edges("g", 0, to).unwrap();
        let (prepared, _, _) = store
            .prepare_at("g", OrderFamily::Descending, Some(to))
            .unwrap();
        let mut forward = vec![0u32; prepared.inverse.len()];
        for (label, &orig) in prepared.inverse.iter().enumerate() {
            forward[orig as usize] = label as u32;
        }
        let mut label_edges: Vec<(u32, u32)> = net_new
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (forward[u as usize], forward[v as usize]);
                (a.min(b), a.max(b))
            })
            .collect();
        label_edges.sort_unstable();
        let outcome = list_new_triangles_src(
            GraphSource::Plain(&prepared.dg),
            &prepared.kernels,
            &label_edges,
            &DeltaOpts::default(),
        );
        let delta_ops = outcome.cost().operations();

        let after =
            Graph::from_edges(n as usize, &present.iter().copied().collect::<Vec<_>>()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E);
        let full_ops = list_triangles(&after, Method::E1, OrderFamily::Descending, &mut rng)
            .cost
            .operations();

        let t0 = Instant::now();
        let report = store.compact_now("g").unwrap();
        let compact_us = t0.elapsed().as_micros();
        assert!(report.compacted);

        println!(
            "| {ratio:.2} | {} | {} | {delta_ops} | {full_ops} | {:.1}× | {compact_us} |",
            adds.len() + removes.len(),
            label_edges.len(),
            full_ops as f64 / delta_ops.max(1) as f64,
        );
    }
}

#[test]
fn latest_window_chain_stays_pinned_while_edits_land() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let n = 60u32;
    let base = gnp_edges(n, 0.12, 0xBEEF);
    client.register_graph("g", n, &base).unwrap();

    let present: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    let adds: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .filter(|e| !present.contains(e))
        .take(12)
        .collect();
    client.add_edges("g", &adds[..10]).unwrap();

    // Reference for the (0, 1) window.
    let reference = client.list_new(DeltaParams::new("g", 0, 1)).unwrap();
    assert!(reference.result.complete);

    // The chain driver resolves LATEST on the first response and pins it;
    // an edit landing mid-chain must not widen the window.
    let first = client
        .list_new(DeltaParams {
            memory_bytes: 1,
            ..DeltaParams::new("g", 0, DeltaParams::LATEST)
        })
        .unwrap();
    assert!(!first.result.complete);
    assert_eq!(first.to_epoch, 1, "LATEST resolved at first response");
    client.add_edges("g", &adds[10..]).unwrap();

    let resumed = client
        .list_new(DeltaParams {
            resume: first.result.resume.clone(),
            ..DeltaParams::new("g", 0, first.to_epoch)
        })
        .unwrap();
    assert!(resumed.result.complete);
    assert_eq!(resumed.result.cost, reference.result.cost);
    assert_eq!(resumed.result.triangles, reference.result.triangles);

    client.shutdown().unwrap();
    server.join();
}

/// A `ListNewTriangles` naming bitset on an entry that caches adaptive
/// kernels borrows the entry's hub rows and builds its block encodings
/// inside its memory ceiling, checked against the server-wide gauge.
/// Under a ceiling too small for the blocks it runs on the degraded
/// context: exactly the one a library delta run builds under the same
/// allowance, which keeps the borrowed rows and sheds only the blocks, so
/// it answers as an adaptive run on the entry's context.
#[test]
fn delta_runs_build_their_kernels_inside_the_memory_ceiling() {
    let n = 600u32;
    let base = gnp_edges(n, 0.05, 0xB10C);
    let present: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    let adds: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .filter(|e| !present.contains(e))
        .step_by(2_003)
        .take(16)
        .collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.register_graph("g", n, &base).unwrap();
    client.add_edges("g", &adds).unwrap();
    // a paper-policy run builds no kernels: it caches the epoch's entry,
    // so the resting gauge below already holds it
    let window = |policy: &str| DeltaParams {
        policy: policy.into(),
        ..DeltaParams::new("g", 0, 1)
    };
    client.list_new(window("paper")).unwrap();
    let resting = stat(&client.stats().unwrap(), "gauge_bytes");

    // the server's exact artifacts, from a store fed the same edits
    let store = GraphStore::new(StoreConfig::default(), MemoryGauge::new());
    store.register("g", n, &base).unwrap();
    store.add_edges("g", &adds).unwrap();
    let (net_new, _) = store.delta_edges("g", 0, 1).unwrap();
    let (prepared, _, _) = store
        .prepare_at("g", OrderFamily::Descending, Some(1))
        .unwrap();
    let mut forward = vec![0u32; prepared.inverse.len()];
    for (label, &orig) in prepared.inverse.iter().enumerate() {
        forward[orig as usize] = label as u32;
    }
    let mut label_edges: Vec<(u32, u32)> = net_new
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (forward[u as usize], forward[v as usize]);
            (a.min(b), a.max(b))
        })
        .collect();
    label_edges.sort_unstable();
    let src = GraphSource::Plain(&prepared.dg);
    let bitset = KernelPolicy::bitset();
    assert_eq!(prepared.kernels.policy(), KernelPolicy::adaptive());
    let library = |policy: KernelPolicy, allowance: Option<u64>| {
        let budget = match allowance {
            Some(bytes) => RunBudget::unlimited().with_memory_bytes(bytes),
            None => RunBudget::unlimited(),
        };
        let opts = DeltaOpts {
            budget,
            ..DeltaOpts::default()
        };
        list_new_triangles_on(src, policy, &prepared.kernels, &label_edges, &opts)
    };

    // the run borrows the rows, so its own build is the blocks alone
    let blocks = Kernels::build_src(bitset, src).bytes() - prepared.kernels.bytes();
    let allowance = blocks / 2;
    let wire = client
        .list_new(DeltaParams {
            memory_bytes: resting + allowance,
            ..window("bitset")
        })
        .unwrap();
    assert!(
        wire.result.complete,
        "the ceiling holds the run's own charges"
    );
    let degraded = library(bitset, Some(allowance));
    assert!(matches!(degraded, DeltaOutcome::Complete { .. }));
    assert_eq!(
        wire.result.cost,
        degraded.cost(),
        "pointer_advances included"
    );
    assert_ne!(
        degraded.cost().pointer_advances,
        library(bitset, None).cost().pointer_advances,
        "the ceiling really degraded the context"
    );
    assert_eq!(
        degraded.cost(),
        library(KernelPolicy::adaptive(), None).cost(),
        "the degraded context keeps the entry's rows"
    );
    let mut want: Vec<(u32, u32, u32)> = degraded
        .triangles()
        .into_iter()
        .map(|(x, y, z)| {
            let mut t = [x, y, z].map(|l| prepared.inverse[l as usize]);
            t.sort_unstable();
            (t[0], t[1], t[2])
        })
        .collect();
    let mut got = wire.result.triangles.clone();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want);

    client.shutdown().unwrap();
    server.join();
}
