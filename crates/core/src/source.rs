//! Layout-polymorphic reads of one oriented graph.
//!
//! The listing runtime reads adjacency two ways. *Build* passes (the hash
//! oracle, hub bitmaps, bitset blocks) stream every list front-to-back
//! once through [`GraphSource`], one `Copy` enum the builders and the
//! scheduler accept, so each build pass is written once and produces
//! *identical structures* for both layouts. *Drive* passes — the T1/T2/
//! E1/E4 range drivers, the chunk-load model and the new-triangle driver
//! — need ascending slices. They are written once, generic over the
//! crate-private `ListReader`, and monomorphised per layout by the
//! `match` in `with_reader!`, taken once per chunk or run (never inside
//! a per-node loop). A plain [`DirectedGraph`] hands out its own slices; a
//! [`CompressedCsr`] decodes into the caller's `DecodeScratch`. The one
//! layout-specific behaviour left is E1's remote read
//! (`ListReader::e1_remote`), where the compressed layout lets the
//! kernels answer from their own structures before it decodes. Same
//! drivers, same kernel calls, same `SideOwner`s: that is what makes the
//! cross-layout differential suites byte-exact.

use crate::compressed::CompressedCsr;
use crate::intersect::ScanStats;
use crate::kernel::{Kernels, ListDir};
use crate::sei::out_of;
use trilist_order::DirectedGraph;

/// A borrowed oriented graph in either adjacency layout.
#[derive(Clone, Copy)]
pub enum GraphSource<'a> {
    /// Uncompressed CSR with sliceable neighbor lists.
    Plain(&'a DirectedGraph),
    /// Delta/varint-compressed CSR; lists decode front-to-back only.
    Compressed(&'a CompressedCsr),
}

/// Evaluates `$body` with `$lists` bound to `$src`'s concrete
/// [`ListReader`], so a generic driver named in `$body` is instantiated
/// once per layout. Every drive pass dispatches on the layout here.
macro_rules! with_reader {
    ($src:expr, |$lists:ident| $body:expr) => {
        match $src {
            $crate::source::GraphSource::Plain($lists) => $body,
            $crate::source::GraphSource::Compressed($lists) => $body,
        }
    };
}
pub(crate) use with_reader;

impl<'a> GraphSource<'a> {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        match self {
            GraphSource::Plain(g) => g.n(),
            GraphSource::Compressed(c) => c.n(),
        }
    }

    /// Number of directed edges.
    pub fn m(&self) -> usize {
        match self {
            GraphSource::Plain(g) => g.m(),
            GraphSource::Compressed(c) => c.m(),
        }
    }

    /// Out-degree `X_v` (O(1) in both layouts — the compressed form stores
    /// its degree tables).
    #[inline]
    pub fn x(&self, v: u32) -> usize {
        match self {
            GraphSource::Plain(g) => g.x(v),
            GraphSource::Compressed(c) => c.x(v),
        }
    }

    /// In-degree `Y_v`.
    #[inline]
    pub fn y(&self, v: u32) -> usize {
        match self {
            GraphSource::Plain(g) => g.y(v),
            GraphSource::Compressed(c) => c.y(v),
        }
    }

    /// Streams `N⁺(v)` ascending through `f` (slice iteration or varint
    /// decode, depending on layout).
    #[inline]
    pub fn for_each_out<F: FnMut(u32)>(&self, v: u32, f: F) {
        match self {
            GraphSource::Plain(g) => g.out(v).iter().copied().for_each(f),
            GraphSource::Compressed(c) => c.out_iter(v).for_each(f),
        }
    }

    /// Streams `N⁻(v)` ascending through `f`.
    #[inline]
    pub fn for_each_in<F: FnMut(u32)>(&self, v: u32, f: F) {
        match self {
            GraphSource::Plain(g) => g.in_(v).iter().copied().for_each(f),
            GraphSource::Compressed(c) => c.in_iter(v).for_each(f),
        }
    }
}

/// Reusable list buffers for the range drivers, one set per worker. A
/// compressed source decodes into them; a plain source never touches
/// them. Capacity persists across chunks, so steady state does no
/// allocation.
#[derive(Debug, Default)]
pub(crate) struct DecodeScratch {
    /// T1 uses one, T2/E1/E4 two, the new-triangle driver all four.
    pub(crate) bufs: [Vec<u32>; 4],
}

/// Ascending neighbor-list reads for the range drivers.
///
/// `out`/`in_` return the list as a slice that borrows either the graph or
/// `buf`, so a driver reads both layouts through one code path and the
/// plain layout pays nothing for the buffer it is handed.
pub(crate) trait ListReader {
    /// Out-degree `X_v`.
    fn x(&self, v: u32) -> usize;

    /// In-degree `Y_v`.
    fn y(&self, v: u32) -> usize;

    /// `N⁺(v)`, ascending.
    fn out<'a>(&'a self, v: u32, buf: &'a mut Vec<u32>) -> &'a [u32];

    /// `N⁻(v)`, ascending.
    fn in_<'a>(&'a self, v: u32, buf: &'a mut Vec<u32>) -> &'a [u32];

    /// E1's remote read: intersects `local` (the prefix of `N⁺(z)` below
    /// `y`) with all of `N⁺(y)` under `k`'s dispatch.
    #[inline]
    fn e1_remote<F: FnMut(u32)>(
        &self,
        k: &Kernels,
        local: &[u32],
        z: u32,
        y: u32,
        buf: &mut Vec<u32>,
        emit: F,
    ) -> ScanStats {
        k.intersect(local, out_of(z), self.out(y, buf), out_of(y), emit)
    }
}

impl ListReader for DirectedGraph {
    #[inline]
    fn x(&self, v: u32) -> usize {
        DirectedGraph::x(self, v)
    }

    #[inline]
    fn y(&self, v: u32) -> usize {
        DirectedGraph::y(self, v)
    }

    #[inline]
    fn out<'a>(&'a self, v: u32, _: &'a mut Vec<u32>) -> &'a [u32] {
        DirectedGraph::out(self, v)
    }

    #[inline]
    fn in_<'a>(&'a self, v: u32, _: &'a mut Vec<u32>) -> &'a [u32] {
        DirectedGraph::in_(self, v)
    }
}

impl ListReader for CompressedCsr {
    #[inline]
    fn x(&self, v: u32) -> usize {
        CompressedCsr::x(self, v)
    }

    #[inline]
    fn y(&self, v: u32) -> usize {
        CompressedCsr::y(self, v)
    }

    #[inline]
    fn out<'a>(&'a self, v: u32, buf: &'a mut Vec<u32>) -> &'a [u32] {
        self.decode_out_into(v, buf);
        buf
    }

    #[inline]
    fn in_<'a>(&'a self, v: u32, buf: &'a mut Vec<u32>) -> &'a [u32] {
        self.decode_in_into(v, buf);
        buf
    }

    /// Block-first: the kernels may answer the pair from `y`'s block
    /// encoding or hub row alone, skipping the remote decode — the
    /// compressed layout's bandwidth win. When the route needs the labels,
    /// [`Kernels::intersect_remote`] declines and the list is decoded for
    /// the same route, so advances and meter tallies match the plain run.
    #[inline]
    fn e1_remote<F: FnMut(u32)>(
        &self,
        k: &Kernels,
        local: &[u32],
        z: u32,
        y: u32,
        buf: &mut Vec<u32>,
        mut emit: F,
    ) -> ScanStats {
        match k.intersect_remote(local, out_of(z), (y, ListDir::Out), self.x(y), &mut emit) {
            Some(stats) => stats,
            None => k.intersect(local, out_of(z), self.out(y, buf), out_of(y), emit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostReport;
    use crate::kernel::{AdaptiveConfig, BitsetConfig, KernelMeter, KernelPolicy};
    use crate::obs::{Counter, CounterSnapshot, InMemoryRecorder};
    use crate::oracle::HashOracle;
    use crate::parallel::run_chunk;
    use crate::resilient::Emit;
    use crate::Method;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use trilist_graph::Graph;
    use trilist_order::{OrderFamily, Relabeling};

    fn random_directed(n: usize, p: f64, seed: u64) -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let r = OrderFamily::Descending.relabeling(&g, &mut rng);
        DirectedGraph::orient(&g, &r)
    }

    #[test]
    fn both_layouts_stream_identical_lists() {
        let dg = random_directed(80, 0.3, 5);
        let csr = CompressedCsr::compress(&dg);
        let plain = GraphSource::Plain(&dg);
        let packed = GraphSource::Compressed(&csr);
        assert_eq!(plain.n(), packed.n());
        assert_eq!(plain.m(), packed.m());
        let (mut buf, mut decoded) = (Vec::new(), Vec::new());
        for v in 0..dg.n() as u32 {
            assert_eq!(plain.x(v), packed.x(v), "x({v})");
            assert_eq!(plain.y(v), packed.y(v), "y({v})");
            assert_eq!(
                ListReader::out(&dg, v, &mut buf),
                ListReader::out(&csr, v, &mut decoded),
                "reader out({v})"
            );
            assert_eq!(
                ListReader::in_(&dg, v, &mut buf),
                ListReader::in_(&csr, v, &mut decoded),
                "reader in({v})"
            );
            let (mut a, mut b) = (Vec::new(), Vec::new());
            plain.for_each_out(v, |w| a.push(w));
            packed.for_each_out(v, |w| b.push(w));
            assert_eq!(a, b, "out({v})");
            a.clear();
            b.clear();
            plain.for_each_in(v, |w| a.push(w));
            packed.for_each_in(v, |w| b.push(w));
            assert_eq!(a, b, "in({v})");
        }
    }

    #[test]
    fn empty_graph_sources() {
        let g = Graph::from_edges(3, &[]).unwrap();
        let dg = DirectedGraph::orient(&g, &Relabeling::identity(3));
        let csr = CompressedCsr::compress(&dg);
        for src in [GraphSource::Plain(&dg), GraphSource::Compressed(&csr)] {
            assert_eq!(src.m(), 0);
            for v in 0..3 {
                src.for_each_out(v, |_| panic!("no edges"));
                src.for_each_in(v, |_| panic!("no edges"));
            }
        }
    }

    type Run = (CostReport, Vec<(u32, u32, u32)>, CounterSnapshot);

    /// Every fundamental method's range driver over all of `g`, with the
    /// triangle stream and the kernel tallies each one metered.
    fn drive<L: ListReader>(g: &L, n: u32, oracle: &HashOracle, k: &Kernels) -> Vec<Run> {
        let meter = Arc::new(KernelMeter::new());
        let k = k.clone().with_meter(Arc::clone(&meter));
        let mut scratch = DecodeScratch::default();
        Method::FUNDAMENTAL
            .iter()
            .map(|&method| {
                let (cost, tris) = run_chunk(
                    g,
                    method,
                    Some(oracle),
                    &k,
                    &mut scratch,
                    0..n,
                    Emit::Triangles,
                );
                let rec = InMemoryRecorder::new();
                meter.flush_into(&rec);
                (cost, tris.into_vec(), rec.snapshot())
            })
            .collect()
    }

    #[test]
    fn drivers_agree_across_layouts() {
        // one driver set, two readers: the compressed run must reproduce
        // the plain one in triangles, every CostReport field and every
        // kernel tally, under each policy
        let forced = KernelPolicy::Bitset(BitsetConfig {
            min_short: 0,
            min_density: 0,
            fallback: AdaptiveConfig::default(),
        });
        let empty = Graph::from_edges(2, &[]).unwrap();
        let empty = DirectedGraph::orient(&empty, &Relabeling::identity(2));
        for dg in [random_directed(80, 0.3, 5), empty] {
            let csr = CompressedCsr::compress(&dg);
            let oracle = HashOracle::build(&dg);
            let n = dg.n() as u32;
            for policy in [
                KernelPolicy::PaperFaithful,
                KernelPolicy::adaptive(),
                KernelPolicy::bitset(),
                forced,
            ] {
                let k = Kernels::build(policy, &dg);
                let plain = drive(&dg, n, &oracle, &k);
                let packed = drive(&csr, n, &oracle, &k);
                for ((method, p), c) in Method::FUNDAMENTAL.iter().zip(&plain).zip(&packed) {
                    assert_eq!(p, c, "{method} {}", policy.name());
                }
                // with the block gates forced open, compressed E1 answers
                // from the block encodings without decoding the remote list
                if policy == forced && dg.m() > 0 {
                    assert!(packed[2].2.get(Counter::IntersectBitset) > 0);
                    assert!(packed[2].2.get(Counter::BitsetBlockSteps) > 0);
                }
            }
        }
    }
}
