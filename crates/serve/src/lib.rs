//! # trilist-serve
//!
//! A concurrent triangle-listing service over the repo's runtime: a
//! length-prefixed binary wire protocol ([`protocol`]), a registered-graph
//! store with an LRU cache of prepared listing artifacts ([`store`]), and
//! cost-model admission control ([`admission`]), glued together by a
//! TCP [`server`] built on one event loop, and a blocking [`client`].
//!
//! The service exists to demonstrate — and test, differentially — that the
//! determinism guarantees of the listing runtime survive a process
//! boundary: a `List` request answered over the wire returns triangles and
//! a [`CostReport`](trilist_core::CostReport) byte-identical to an
//! in-process [`par_list`](trilist_core::par_list) call, including runs
//! interrupted by a deadline and continued by a follow-up request carrying
//! the [`ResumePoint`](trilist_core::ResumePoint) token.
//!
//! ```no_run
//! use trilist_serve::{Client, ListParams, ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.register_graph("k4", 4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
//! let run = client.list(ListParams::new("k4", "T1", "desc", "paper")).unwrap();
//! assert_eq!(run.cost.triangles, 4);
//! server.join();
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod codec;
pub mod protocol;
pub mod server;
pub mod store;

mod client;
mod event_loop;
mod metrics;

pub use admission::{Admission, AdmissionConfig, Permit, Rejection};
pub use chaos::{ChaosPlan, ExecFault, IoFault, IoOp};
pub use client::{ChainResult, Client, ClientError, RetryPolicy};
pub use codec::{Reader, WireError, Writer};
pub use protocol::{
    decode_frame, encode_frame, merge_pieces, read_frame, scan_frame, write_frame, DeltaParams,
    DeltaRunResult, EditInfo, ErrorCode, ErrorFrame, FrameError, ListParams, PlanInfo, Request,
    Response, RunResult, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
/// Locks `m`, taking the guard back from a holder that panicked.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use server::{accept_error_action, AcceptAction, ServeConfig, Server, ServerHandle};
pub use store::{
    autotune_plan, prepare_graph, prepare_graph_with, prepare_seed_at, prepare_seed_for,
    CompactReport, CompactorHandle, EditReceipt, EpochPin, GraphStore, PlanMode, PlanSummary,
    Prepared, StoreConfig, StoreError, StoreStats,
};

#[cfg(test)]
mod oracle;
