//! Property/fuzz suite for the `trilist-serve` wire protocol.
//!
//! Two contracts, each driven by 256 generated cases per property (the
//! weekly extended run raises `PROPTEST_CASES`):
//!
//! 1. **Round-trip**: every frame type — awkward strings, zero-length
//!    bodies, arbitrary numeric fields including NaN float bits —
//!    re-encodes byte-identically after a decode.
//! 2. **Fuzz**: arbitrary bytes, truncated frames, bad versions,
//!    oversized length prefixes, and single-byte mutations of valid
//!    frames produce *typed* errors — the decoder never panics and never
//!    allocates beyond the bytes actually present.

use proptest::prelude::*;
use trilist::core::CostReport;
use trilist::serve::{
    decode_frame, encode_frame, DeltaParams, DeltaRunResult, EditInfo, ErrorCode, ErrorFrame,
    ListParams, Request, Response, RunResult, MAX_FRAME_BYTES,
};

/// Characters the wire codec must survive: separators, quotes, control
/// characters, non-ASCII scalars, and the resume-token alphabet.
const AWKWARD: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', ':', '-', '=', '.', ',', '\n', '\t', '\u{1}', 'é', '🜁',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..AWKWARD.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| AWKWARD[i]).collect())
}

fn arb_cost() -> impl Strategy<Value = CostReport> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        any::<bool>(),
    )
        .prop_map(
            |(
                (triangles, lookups, local),
                (remote, hash_inserts, pointer_advances),
                overflowed,
            )| {
                CostReport {
                    triangles,
                    lookups,
                    local,
                    remote,
                    hash_inserts,
                    pointer_advances,
                    overflowed,
                }
            },
        )
}

fn arb_params() -> impl Strategy<Value = ListParams> {
    (
        (arb_string(), arb_string(), arb_string(), arb_string()),
        (any::<u16>(), any::<u64>(), any::<u64>(), arb_string()),
    )
        .prop_map(
            |((graph, method, family, policy), (threads, deadline_ms, memory_bytes, resume))| {
                ListParams {
                    graph,
                    method,
                    family,
                    policy,
                    threads,
                    deadline_ms,
                    memory_bytes,
                    resume,
                }
            },
        )
}

fn arb_delta_params() -> impl Strategy<Value = DeltaParams> {
    (
        (arb_string(), any::<u64>(), any::<u64>()),
        (arb_string(), arb_string()),
        (any::<u16>(), any::<u64>(), any::<u64>(), arb_string()),
    )
        .prop_map(
            |(
                (graph, from_epoch, to_epoch),
                (family, policy),
                (threads, deadline_ms, memory_bytes, resume),
            )| DeltaParams {
                graph,
                from_epoch,
                to_epoch,
                family,
                policy,
                threads,
                deadline_ms,
                memory_bytes,
                resume,
            },
        )
}

fn arb_run_result() -> impl Strategy<Value = RunResult> {
    (
        (any::<bool>(), arb_string(), any::<bool>(), arb_string()),
        arb_cost(),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..6),
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..6),
    )
        .prop_map(
            |((complete, stop_reason, cache_hit, resume), cost, chunks, triangles)| RunResult {
                complete,
                stop_reason,
                cache_hit,
                cost,
                resume,
                chunks,
                triangles,
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..9,
        (arb_string(), any::<u32>()),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        arb_params(),
        ((arb_string(), arb_string()), arb_delta_params()),
    )
        .prop_map(
            |(which, (name, n), edges, params, ((method, family), delta))| match which {
                0 => Request::RegisterGraph { name, n, edges },
                1 => Request::List(params),
                2 => Request::Count(params),
                3 => Request::ModelPredict {
                    graph: name,
                    method,
                    family,
                },
                4 => Request::Stats,
                5 => Request::AddEdges { graph: name, edges },
                6 => Request::RemoveEdges { graph: name, edges },
                7 => Request::ListNewTriangles(delta),
                _ => Request::Shutdown,
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..9,
        ((any::<u32>(), any::<u64>()), arb_run_result()),
        // raw bits: NaN payloads and infinities included
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (
            proptest::collection::vec((arb_string(), any::<u64>()), 0..5),
            (1u8..=7u8, arb_string()),
        ),
        (
            ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                which,
                ((n, m), run),
                (pn_bits, ops_bits, pn_n),
                (stats, (code, message)),
                (((epoch, applied), (from_epoch, to_epoch)), compacting),
            )| match which {
                0 => Response::Registered { n, m },
                1 => Response::ListResult(run),
                2 => Response::CountResult(run),
                3 => Response::Predicted {
                    per_node: f64::from_bits(pn_bits),
                    total_ops: f64::from_bits(ops_bits),
                    n: pn_n,
                },
                4 => Response::StatsResult(stats),
                5 => Response::ShutdownAck,
                // delta_ratio from raw bits: NaN and infinities must
                // round-trip byte-identically like Predicted's floats
                6 => Response::EditResult(EditInfo {
                    epoch,
                    applied,
                    m,
                    delta_edges: pn_n,
                    delta_ratio: f64::from_bits(pn_bits),
                    compacting,
                }),
                7 => Response::NewTrianglesResult(DeltaRunResult {
                    from_epoch,
                    to_epoch,
                    new_edges: applied,
                    removed_edges: epoch,
                    result: run,
                }),
                _ => {
                    let code = match code {
                        1 => ErrorCode::Protocol,
                        2 => ErrorCode::UnknownGraph,
                        3 => ErrorCode::BadRequest,
                        4 => ErrorCode::RejectedBusy,
                        5 => ErrorCode::RejectedCost,
                        6 => ErrorCode::ShuttingDown,
                        _ => ErrorCode::Internal,
                    };
                    Response::Error(ErrorFrame { code, message })
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every request frame round-trips exactly.
    #[test]
    fn request_frames_round_trip(req in arb_request()) {
        let frame = encode_frame(req.kind(), &req.payload());
        let (kind, body) = decode_frame(&frame).expect("valid frame");
        let decoded = Request::decode(kind, body).expect("valid payload");
        prop_assert_eq!(&decoded, &req);
        // re-encoding is byte-identical (canonical encoding)
        prop_assert_eq!(encode_frame(decoded.kind(), &decoded.payload()), frame);
    }

    // Every response frame round-trips byte-identically — compared at
    // the byte level so NaN float payloads are covered too.
    #[test]
    fn response_frames_round_trip(resp in arb_response()) {
        let frame = encode_frame(resp.kind(), &resp.payload());
        let (kind, body) = decode_frame(&frame).expect("valid frame");
        let decoded = Response::decode(kind, body).expect("valid payload");
        prop_assert_eq!(decoded.kind(), resp.kind());
        prop_assert_eq!(encode_frame(decoded.kind(), &decoded.payload()), frame);
    }

    // Arbitrary garbage never panics any decoder entry point; it yields
    // `Ok` or a typed `WireError` — nothing else.
    #[test]
    fn garbage_bytes_yield_typed_errors(bytes in proptest::collection::vec(any::<u8>(), 0..200), kind in any::<u8>()) {
        let _ = decode_frame(&bytes);
        let _ = Request::decode(kind, &bytes);
        let _ = Response::decode(kind, &bytes);
    }

    // Every strict prefix of a valid frame fails to decode (truncation
    // is always detected, never mis-parsed or panicking).
    #[test]
    fn truncated_frames_are_rejected(req in arb_request()) {
        let frame = encode_frame(req.kind(), &req.payload());
        for cut in 0..frame.len() {
            prop_assert!(decode_frame(&frame[..cut]).is_err(), "prefix of {cut} bytes must fail");
        }
    }

    // Single-byte mutations never panic; mutating the version byte in
    // particular is always caught as `BadVersion`.
    #[test]
    fn mutated_frames_never_panic(req in arb_request(), at in any::<usize>(), xor in 1u8..=255u8) {
        let mut frame = encode_frame(req.kind(), &req.payload());
        let at = at % frame.len();
        frame[at] ^= xor;
        match decode_frame(&frame) {
            Ok((kind, body)) => { let _ = Request::decode(kind, body); }
            Err(e) => {
                if at == 4 {
                    prop_assert_eq!(e, trilist::serve::WireError::BadVersion(1 ^ xor));
                }
            }
        }
    }

    // Hostile length prefixes — a 4 GiB string or array declared inside
    // a tiny frame — are rejected before any allocation happens. The
    // test completing at all (no OOM) is part of the property.
    #[test]
    fn oversized_declared_lengths_rejected(declared in any::<u32>(), kind in 1u8..=10) {
        let mut payload = declared.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0xAB; 8]);
        let result = Request::decode(kind, &payload);
        if declared as usize > payload.len() {
            prop_assert!(result.is_err());
        }
    }

    // The frame-length cap is enforced before the body would be read.
    #[test]
    fn frame_length_cap_enforced(extra in 1u32..1000) {
        let len = MAX_FRAME_BYTES.saturating_add(extra);
        let mut frame = len.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 5, 0, 0]);
        prop_assert!(matches!(
            decode_frame(&frame),
            Err(trilist::serve::WireError::Oversized { .. })
        ));
    }
}

/// A deterministic malformed-bytes corpus on top of the generated cases:
/// classic framing attacks, each answered with a typed error.
#[test]
fn deterministic_malformed_corpus() {
    let valid = encode_frame(Request::Stats.kind(), &Request::Stats.payload());
    let mut corpus: Vec<Vec<u8>> = vec![
        vec![],
        vec![0],
        vec![0; 4],                            // len = 0 < header
        vec![1, 0, 0, 0],                      // len = 1 < header
        vec![2, 0, 0, 0, 9],                   // truncated after version
        vec![2, 0, 0, 0, 9, 5],                // bad version
        vec![2, 0, 0, 0, 1, 0x42],             // unknown kind
        0xFFFF_FFFFu32.to_le_bytes().to_vec(), // oversized len, no body
    ];
    for cut in 0..valid.len() {
        corpus.push(valid[..cut].to_vec());
    }
    // every strict prefix of the dynamic-graph frames is rejected too
    let add = Request::AddEdges {
        graph: "g".into(),
        edges: vec![(0, 1), (2, 3)],
    };
    let list_new = Request::ListNewTriangles(DeltaParams {
        resume: "trilist-resume v1 delta n=4 edges=2 0:0-2".into(),
        ..DeltaParams::new("g", 0, DeltaParams::LATEST)
    });
    for req in [&add, &list_new] {
        let frame = encode_frame(req.kind(), &req.payload());
        for cut in 0..frame.len() {
            corpus.push(frame[..cut].to_vec());
        }
    }
    // length prefix claims more than the cap
    let mut huge = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
    huge.extend_from_slice(&[1, 5]);
    corpus.push(huge);
    let mut rejected = 0;
    for bytes in &corpus {
        match decode_frame(bytes) {
            Ok((kind, body)) => {
                // structurally complete header; the payload decoders must
                // still never panic
                let _ = Request::decode(kind, body);
                let _ = Response::decode(kind, body);
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected >= corpus.len() - 1, "corpus is mostly malformed");

    // Payload-level attacks on the new frames, fed straight to the typed
    // decoders under their real kind bytes: truncation anywhere inside
    // the payload and a hostile edge-array length must both come back as
    // typed errors, never a panic or a giant allocation.
    let edit = Response::EditResult(EditInfo {
        epoch: 7,
        applied: 2,
        m: 40,
        delta_edges: 5,
        delta_ratio: 0.125,
        compacting: true,
    });
    let delta_run = Response::NewTrianglesResult(DeltaRunResult {
        from_epoch: 1,
        to_epoch: 3,
        new_edges: 2,
        removed_edges: 1,
        result: RunResult {
            complete: false,
            stop_reason: "memory budget exhausted".into(),
            cache_hit: true,
            cost: CostReport::default(),
            resume: "trilist-resume v1 delta n=4 edges=2 1:1-2".into(),
            chunks: vec![(0, 1)],
            triangles: vec![(0, 1, 2)],
        },
    });
    for req in [&add, &list_new] {
        let payload = req.payload();
        for cut in 0..payload.len() {
            assert!(
                Request::decode(req.kind(), &payload[..cut]).is_err(),
                "kind {:#x}: truncated payload ({cut} bytes) must be rejected",
                req.kind()
            );
        }
    }
    for resp in [&edit, &delta_run] {
        let payload = resp.payload();
        for cut in 0..payload.len() {
            assert!(
                Response::decode(resp.kind(), &payload[..cut]).is_err(),
                "kind {:#x}: truncated payload ({cut} bytes) must be rejected",
                resp.kind()
            );
        }
    }
    // hostile declared edge-array length inside an AddEdges payload
    let mut payload = add.payload();
    let graph_field = 4 + 1; // u32 string length + "g"
    payload[graph_field..graph_field + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(Request::decode(add.kind(), &payload).is_err());
}
