//! Varint/delta-compressed oriented adjacency.
//!
//! §2.4 notes that in some graphs "binary search may be impossible
//! altogether (e.g., with compressed neighbor lists)" — which disqualifies
//! the preprocessing shortcuts that need random access and makes the
//! sequential scanning of SEI the only intersection primitive available.
//! This module provides that setting concretely, at two levels:
//!
//! * [`CompressedOut`] + [`e1_compressed`] — the seed showcase: out-lists
//!   only, E1 running *directly* on the compressed form with streaming
//!   merge, the literal regime of the §2.4 remark.
//! * [`CompressedCsr`] — a first-class both-direction compressed layout the
//!   whole runtime can run on. Lists are stored as LEB128-varint gap codes
//!   (decodable only front-to-back); degree tables are kept uncompressed so
//!   `X_v`/`Y_v` stay O(1) for the load model and the cost formulas. The
//!   range drivers below ([`t1_range_csr`], [`t2_range_csr`],
//!   [`e1_range_with_csr`], [`e4_range_with_csr`]) decode each visited
//!   node's lists once into reusable [`DecodeScratch`] buffers and then
//!   run the *same* [`Kernels`] dispatch on the decoded slices — so paper
//!   cost fields **and** `pointer_advances` are byte-identical to the
//!   plain-layout drivers under every kernel policy, and only wall-clock
//!   (decode cost vs. memory bandwidth) differs. That trade is what the
//!   autotuner's `compressed` flag weighs.

use crate::cost::CostReport;
use crate::kernel::{Kernels, ListDir, SideOwner};
use crate::oracle::EdgeOracle;
use crate::source::GraphSource;
use trilist_order::DirectedGraph;

fn write_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Gap-encodes one ascending list: first element absolute, the rest as
/// gaps − 1 (gaps are ≥ 1 in a strictly increasing list).
fn encode_list(bytes: &mut Vec<u8>, list: &[u32]) {
    let mut prev = 0u32;
    for (i, &w) in list.iter().enumerate() {
        let delta = if i == 0 { w } else { w - prev - 1 };
        write_varint(bytes, delta);
        prev = w;
    }
}

/// Decodes the byte range `[start, end)` front-to-back into `buf`
/// (cleared first). This tight loop is the "decode" primitive whose
/// throughput `trilist-model::kernel_throughputs` measures for the
/// autotuner.
#[inline]
fn decode_into(bytes: &[u8], start: usize, end: usize, buf: &mut Vec<u32>) {
    buf.clear();
    let mut pos = start;
    let mut prev = 0u32;
    let mut first = true;
    while pos < end {
        let delta = read_varint(bytes, &mut pos);
        let value = if first {
            first = false;
            delta
        } else {
            prev + 1 + delta
        };
        prev = value;
        buf.push(value);
    }
}

/// Streaming decoder for one compressed neighbor list.
pub struct ListIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
    prev: Option<u32>,
}

impl Iterator for ListIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.end {
            return None;
        }
        let delta = read_varint(self.bytes, &mut self.pos);
        let value = match self.prev {
            None => delta,
            Some(p) => p + 1 + delta,
        };
        self.prev = Some(value);
        Some(value)
    }
}

/// Seed decoder name, kept for the `e1_compressed` showcase API.
pub type OutIter<'a> = ListIter<'a>;

/// Delta-varint compressed out-lists of an oriented graph.
///
/// Neighbor lists are sorted ascending, so consecutive gaps are small and
/// most neighbors fit in one byte on relabeled graphs.
pub struct CompressedOut {
    offsets: Vec<usize>,
    bytes: Vec<u8>,
    n: usize,
}

impl CompressedOut {
    /// Compresses the out-lists of `g`.
    pub fn compress(g: &DirectedGraph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut bytes = Vec::new();
        offsets.push(0);
        for v in 0..n as u32 {
            encode_list(&mut bytes, g.out(v));
            offsets.push(bytes.len());
        }
        CompressedOut { offsets, bytes, n }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Compressed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Sequential decoder over `N⁺(v)` — the *only* access path; there is
    /// deliberately no random indexing.
    pub fn out_iter(&self, v: u32) -> OutIter<'_> {
        ListIter {
            bytes: &self.bytes,
            pos: self.offsets[v as usize],
            end: self.offsets[v as usize + 1],
            prev: None,
        }
    }

    /// Out-degree by full decode (no length table is stored; SEI never
    /// needs degrees, this exists for tests).
    pub fn x(&self, v: u32) -> usize {
        self.out_iter(v).count()
    }
}

/// Both-direction delta/varint-compressed CSR: the full oriented graph in
/// gap-coded form, with uncompressed degree tables so the chunk-load model
/// and cost formulas keep O(1) `X_v`/`Y_v`.
///
/// Footprint is typically 1.5–3 bits-per-edge-byte smaller than the plain
/// `u32` CSR on degree-relabeled graphs ([`CompressedCsr::bytes`] vs.
/// `8 B/edge` plain, both directions); the price is that every list read
/// is a front-to-back varint decode.
pub struct CompressedCsr {
    out_offsets: Vec<usize>,
    out_bytes: Vec<u8>,
    in_offsets: Vec<usize>,
    in_bytes: Vec<u8>,
    xs: Vec<u32>,
    ys: Vec<u32>,
    m: usize,
}

impl CompressedCsr {
    /// Compresses both directions of `g`.
    pub fn compress(g: &DirectedGraph) -> Self {
        let n = g.n();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut out_bytes = Vec::new();
        let mut in_bytes = Vec::new();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in 0..n as u32 {
            encode_list(&mut out_bytes, g.out(v));
            out_offsets.push(out_bytes.len());
            encode_list(&mut in_bytes, g.in_(v));
            in_offsets.push(in_bytes.len());
            xs.push(g.x(v) as u32);
            ys.push(g.y(v) as u32);
        }
        CompressedCsr {
            out_offsets,
            out_bytes,
            in_offsets,
            in_bytes,
            xs,
            ys,
            m: g.m(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.xs.len()
    }

    /// Number of directed edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Out-degree `X_v` — O(1), from the stored degree table.
    #[inline]
    pub fn x(&self, v: u32) -> usize {
        self.xs[v as usize] as usize
    }

    /// In-degree `Y_v` — O(1).
    #[inline]
    pub fn y(&self, v: u32) -> usize {
        self.ys[v as usize] as usize
    }

    /// Streaming decoder over `N⁺(v)`.
    pub fn out_iter(&self, v: u32) -> ListIter<'_> {
        ListIter {
            bytes: &self.out_bytes,
            pos: self.out_offsets[v as usize],
            end: self.out_offsets[v as usize + 1],
            prev: None,
        }
    }

    /// Streaming decoder over `N⁻(v)`.
    pub fn in_iter(&self, v: u32) -> ListIter<'_> {
        ListIter {
            bytes: &self.in_bytes,
            pos: self.in_offsets[v as usize],
            end: self.in_offsets[v as usize + 1],
            prev: None,
        }
    }

    /// Decodes `N⁺(v)` into `buf` (cleared first) in one front-to-back
    /// pass. The buffer is caller-owned scratch so repeated decodes reuse
    /// one allocation.
    #[inline]
    pub fn decode_out_into(&self, v: u32, buf: &mut Vec<u32>) {
        decode_into(
            &self.out_bytes,
            self.out_offsets[v as usize],
            self.out_offsets[v as usize + 1],
            buf,
        );
    }

    /// Decodes `N⁻(v)` into `buf` (cleared first).
    #[inline]
    pub fn decode_in_into(&self, v: u32, buf: &mut Vec<u32>) {
        decode_into(
            &self.in_bytes,
            self.in_offsets[v as usize],
            self.in_offsets[v as usize + 1],
            buf,
        );
    }

    /// Heap footprint in bytes (what a [`MemoryGauge`] charge or a serve
    /// cache-entry estimate should use).
    ///
    /// [`MemoryGauge`]: crate::resilient::MemoryGauge
    pub fn bytes(&self) -> u64 {
        (self.out_bytes.len()
            + self.in_bytes.len()
            + (self.out_offsets.len() + self.in_offsets.len()) * std::mem::size_of::<usize>()
            + (self.xs.len() + self.ys.len()) * 4) as u64
    }
}

/// Reusable per-worker decode buffers for the compressed range drivers:
/// one for the visited node's primary list, one for its secondary list
/// (T2 walks both of `y`'s lists), one for the per-neighbor remote list.
/// Capacity persists across chunks, so steady state does no allocation.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    node: Vec<u32>,
    aux: Vec<u32>,
    remote: Vec<u32>,
}

impl DecodeScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        DecodeScratch::default()
    }
}

#[inline]
fn out_of(v: u32) -> SideOwner {
    Some((v, ListDir::Out))
}

#[inline]
fn in_of(v: u32) -> SideOwner {
    Some((v, ListDir::In))
}

// The four compressed range drivers mirror their plain-layout twins
// statement for statement (`vertex::t1_range`/`t2_range`,
// `sei::e1_range_with`/`e4_range_with`): identical visit order, identical
// charges, identical kernel calls with identical `SideOwner`s. The only
// difference is that each visited node's list(s) are decoded once into
// scratch before the inner loop — which the paper's cost model does not
// see (decode is bandwidth, not a counted comparison or lookup).

/// T1 over `range` on the compressed layout: byte-identical `CostReport`
/// to [`crate::vertex::t1_range`] and the same triangle emission order.
pub fn t1_range_csr<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    c: &CompressedCsr,
    oracle: &O,
    range: std::ops::Range<u32>,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    for z in range {
        c.decode_out_into(z, &mut scratch.node);
        let out = &scratch.node[..];
        for (j, &y) in out.iter().enumerate() {
            for &x in &out[..j] {
                cost.lookups += 1;
                if oracle.has(y, x) {
                    cost.triangles += 1;
                    sink(x, y, z);
                }
            }
        }
    }
    cost
}

/// T2 over `range` on the compressed layout: byte-identical `CostReport`
/// to [`crate::vertex::t2_range`].
pub fn t2_range_csr<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    c: &CompressedCsr,
    oracle: &O,
    range: std::ops::Range<u32>,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    for y in range {
        c.decode_in_into(y, &mut scratch.node);
        c.decode_out_into(y, &mut scratch.aux);
        for &z in &scratch.node {
            for &x in &scratch.aux {
                cost.lookups += 1;
                if oracle.has(z, x) {
                    cost.triangles += 1;
                    sink(x, y, z);
                }
            }
        }
    }
    cost
}

/// E1 over `range` on the compressed layout with an explicit kernel
/// context. Charges and kernel dispatch are byte-identical to
/// [`crate::sei::e1_range_with`] — the decoded slices carry the same
/// contents and the same `SideOwner`s, so the adaptive/bitset dispatch
/// takes the same path and reports the same `pointer_advances`.
pub fn e1_range_with_csr<F: FnMut(u32, u32, u32)>(
    c: &CompressedCsr,
    range: std::ops::Range<u32>,
    k: &Kernels,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    for z in range {
        c.decode_out_into(z, &mut scratch.node);
        for j in 0..scratch.node.len() {
            let y = scratch.node[j];
            let local = &scratch.node[..j];
            let rlen = c.x(y);
            cost.local += local.len() as u64;
            cost.remote += rlen as u64;
            // block-first: the bitset policy can answer the pair from the
            // block encodings alone, skipping the remote varint decode —
            // the compressed layout's bandwidth win. Falls back to
            // decode + the ordinary dispatch (same routing, same
            // advances) when the kernel needs labels.
            let stats = match k
                .intersect_remote(local, out_of(z), (y, ListDir::Out), rlen, |x| sink(x, y, z))
            {
                Some(stats) => stats,
                None => {
                    c.decode_out_into(y, &mut scratch.remote);
                    k.intersect(local, out_of(z), &scratch.remote, out_of(y), |x| {
                        sink(x, y, z)
                    })
                }
            };
            cost.pointer_advances += stats.advances;
            cost.triangles += stats.matches;
        }
    }
    cost
}

/// E4 over `range` on the compressed layout with an explicit kernel
/// context: byte-identical charges and dispatch to
/// [`crate::sei::e4_range_with`]. The boundary rank of `z` in `N⁻(x)` is
/// found by binary search *on the decoded buffer* — bookkeeping outside
/// the cost model, exactly as in the plain driver.
pub fn e4_range_with_csr<F: FnMut(u32, u32, u32)>(
    c: &CompressedCsr,
    range: std::ops::Range<u32>,
    k: &Kernels,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    for z in range {
        c.decode_out_into(z, &mut scratch.node);
        for j in 0..scratch.node.len() {
            let x = scratch.node[j];
            c.decode_in_into(x, &mut scratch.remote);
            let r = scratch.remote.partition_point(|&w| w < z);
            let local = &scratch.node[j + 1..];
            let remote = &scratch.remote[..r];
            cost.local += local.len() as u64;
            cost.remote += remote.len() as u64;
            let stats = k.intersect(local, out_of(z), remote, in_of(x), |y| sink(x, y, z));
            cost.pointer_advances += stats.advances;
            cost.triangles += stats.matches;
        }
    }
    cost
}

/// Counting-only E1 over `range` on the compressed layout: every
/// paper-cost field byte-identical to [`e1_range_with_csr`] with a
/// counting sink, but the remote decode is skipped whenever
/// [`Kernels::count_remote`] can answer the pair label-free — under the
/// bitset policy this is the block *popcount* path
/// ([`count_blocks`](crate::bitset::BitsetBlocks)), the route the ROADMAP
/// noted counting mode never reached from the public API.
pub fn e1_count_with_csr(
    c: &CompressedCsr,
    range: std::ops::Range<u32>,
    k: &Kernels,
    scratch: &mut DecodeScratch,
) -> CostReport {
    let mut cost = CostReport::default();
    for z in range {
        c.decode_out_into(z, &mut scratch.node);
        for j in 0..scratch.node.len() {
            let y = scratch.node[j];
            let local = &scratch.node[..j];
            let rlen = c.x(y);
            cost.local += local.len() as u64;
            cost.remote += rlen as u64;
            let stats = match k.count_remote(local, out_of(z), (y, ListDir::Out), rlen) {
                Some(stats) => stats,
                None => {
                    c.decode_out_into(y, &mut scratch.remote);
                    k.count(local, out_of(z), &scratch.remote, out_of(y))
                }
            };
            cost.pointer_advances += stats.advances;
            cost.triangles += stats.matches;
        }
    }
    cost
}

/// Counting-only E4 over `range` on the compressed layout: byte-identical
/// paper-cost fields to [`e4_range_with_csr`] with a counting sink. E4's
/// remote side is a *prefix* of `N⁻(x)` (not the full list), so the
/// label-free shortcut does not apply — the decode is needed for the
/// boundary rank regardless — and the counting win is the sink-free
/// [`Kernels::count`] dispatch (block popcounts under the bitset policy).
pub fn e4_count_with_csr(
    c: &CompressedCsr,
    range: std::ops::Range<u32>,
    k: &Kernels,
    scratch: &mut DecodeScratch,
) -> CostReport {
    let mut cost = CostReport::default();
    for z in range {
        c.decode_out_into(z, &mut scratch.node);
        for j in 0..scratch.node.len() {
            let x = scratch.node[j];
            c.decode_in_into(x, &mut scratch.remote);
            let r = scratch.remote.partition_point(|&w| w < z);
            let local = &scratch.node[j + 1..];
            let remote = &scratch.remote[..r];
            cost.local += local.len() as u64;
            cost.remote += remote.len() as u64;
            let stats = k.count(local, out_of(z), remote, in_of(x));
            cost.pointer_advances += stats.advances;
            cost.triangles += stats.matches;
        }
    }
    cost
}

/// Counts triangles on a compressed graph through the public API, routing
/// each fundamental method to its counting-mode compressed driver — SEI
/// methods through [`Kernels::count`]/[`Kernels::count_remote`] (the
/// block-popcount path under the bitset policy), vertex iterators through
/// a [`HashOracle`](crate::oracle::HashOracle) built by one streaming
/// pass. Every paper-cost field is byte-identical to the plain-layout
/// [`Method::count_with_kernels`](crate::Method::count_with_kernels) on
/// the decoded graph (pinned in `tests/dynamic_differential.rs`).
pub fn count_triangles_csr(
    c: &CompressedCsr,
    method: crate::Method,
    k: &Kernels,
) -> Result<CostReport, crate::parallel::ParallelError> {
    crate::parallel::ensure_fundamental(method)?;
    let n = c.n() as u32;
    let mut scratch = DecodeScratch::default();
    Ok(match method {
        crate::Method::E1 => e1_count_with_csr(c, 0..n, k, &mut scratch),
        crate::Method::E4 => e4_count_with_csr(c, 0..n, k, &mut scratch),
        crate::Method::T1 => {
            let oracle = crate::oracle::HashOracle::build_src(GraphSource::Compressed(c));
            t1_range_csr(c, &oracle, 0..n, &mut scratch, |_, _, _| {})
        }
        _ => {
            let oracle = crate::oracle::HashOracle::build_src(GraphSource::Compressed(c));
            t2_range_csr(c, &oracle, 0..n, &mut scratch, |_, _, _| {})
        }
    })
}

/// E1 over compressed out-lists: identical search order and accounting as
/// [`crate::sei::e1`], but every list access is a streaming decode — no
/// binary search, no slicing, the regime of §2.4's compressed-list remark.
pub fn e1_compressed<F: FnMut(u32, u32, u32)>(g: &CompressedOut, mut sink: F) -> CostReport {
    let mut cost = CostReport::default();
    let mut local_buf: Vec<u32> = Vec::new();
    for z in 0..g.n() as u32 {
        // decode N⁺(z) once per visited node (streaming, front to back)
        local_buf.clear();
        local_buf.extend(g.out_iter(z));
        for (j, &y) in local_buf.iter().enumerate() {
            let local = &local_buf[..j];
            cost.local += local.len() as u64;
            // remote list is decoded lazily during the merge
            let mut remote = g.out_iter(y);
            let mut li = 0usize;
            let mut r = remote.next();
            while li < local.len() {
                match r {
                    None => break,
                    Some(rv) => {
                        let lv = local[li];
                        if lv == rv {
                            cost.triangles += 1;
                            sink(lv, y, z);
                            li += 1;
                            r = remote.next();
                            cost.pointer_advances += 2;
                        } else if lv < rv {
                            li += 1;
                            cost.pointer_advances += 1;
                        } else {
                            r = remote.next();
                            cost.pointer_advances += 1;
                        }
                    }
                }
            }
            // the paper's accounting charges the full eligible remote list
            cost.remote += g.x(y) as u64;
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelPolicy;
    use crate::oracle::HashOracle;
    use crate::Method;
    use rand::SeedableRng;
    use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
    use trilist_graph::gen::{GraphGenerator, ResidualSampler};
    use trilist_order::{OrderFamily, Relabeling};

    fn fixture() -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dist = Truncated::new(DiscretePareto::paper_beta(1.7), 44);
        let (seq, _) = sample_degree_sequence(&dist, 1_500, &mut rng);
        let g = ResidualSampler.generate(&seq, &mut rng).graph;
        DirectedGraph::orient(&g, &OrderFamily::Descending.relabeling(&g, &mut rng))
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_matches_original_lists() {
        let dg = fixture();
        let c = CompressedOut::compress(&dg);
        for v in 0..dg.n() as u32 {
            let decoded: Vec<u32> = c.out_iter(v).collect();
            assert_eq!(decoded.as_slice(), dg.out(v), "node {v}");
            assert_eq!(c.x(v), dg.x(v));
        }
    }

    #[test]
    fn csr_round_trips_both_directions() {
        let dg = fixture();
        let c = CompressedCsr::compress(&dg);
        assert_eq!(c.n(), dg.n());
        assert_eq!(c.m(), dg.m());
        let mut buf = Vec::new();
        for v in 0..dg.n() as u32 {
            assert_eq!(c.x(v), dg.x(v), "x({v})");
            assert_eq!(c.y(v), dg.y(v), "y({v})");
            let out: Vec<u32> = c.out_iter(v).collect();
            assert_eq!(out.as_slice(), dg.out(v), "out({v})");
            let inn: Vec<u32> = c.in_iter(v).collect();
            assert_eq!(inn.as_slice(), dg.in_(v), "in({v})");
            c.decode_out_into(v, &mut buf);
            assert_eq!(buf.as_slice(), dg.out(v), "decode_out({v})");
            c.decode_in_into(v, &mut buf);
            assert_eq!(buf.as_slice(), dg.in_(v), "decode_in({v})");
        }
    }

    #[test]
    fn csr_drivers_match_plain_drivers() {
        let dg = fixture();
        let c = CompressedCsr::compress(&dg);
        let oracle = HashOracle::build(&dg);
        let mut scratch = DecodeScratch::new();
        let n = dg.n() as u32;

        let mut plain = Vec::new();
        let pc = crate::vertex::t1_range(&dg, &oracle, 0..n, |x, y, z| plain.push((x, y, z)));
        let mut packed = Vec::new();
        let cc = t1_range_csr(&c, &oracle, 0..n, &mut scratch, |x, y, z| {
            packed.push((x, y, z))
        });
        assert_eq!(plain, packed, "T1 triangles");
        assert_eq!(pc, cc, "T1 cost");

        plain.clear();
        packed.clear();
        let pc = crate::vertex::t2_range(&dg, &oracle, 0..n, |x, y, z| plain.push((x, y, z)));
        let cc = t2_range_csr(&c, &oracle, 0..n, &mut scratch, |x, y, z| {
            packed.push((x, y, z))
        });
        assert_eq!(plain, packed, "T2 triangles");
        assert_eq!(pc, cc, "T2 cost");

        for policy in [KernelPolicy::PaperFaithful, KernelPolicy::adaptive()] {
            let k = Kernels::build(policy, &dg);
            plain.clear();
            packed.clear();
            let pc = crate::sei::e1_range_with(&dg, 0..n, &k, |x, y, z| plain.push((x, y, z)));
            let cc =
                e1_range_with_csr(&c, 0..n, &k, &mut scratch, |x, y, z| packed.push((x, y, z)));
            assert_eq!(plain, packed, "E1 triangles {}", policy.name());
            assert_eq!(pc, cc, "E1 cost {}", policy.name());

            plain.clear();
            packed.clear();
            let pc = crate::sei::e4_range_with(&dg, 0..n, &k, |x, y, z| plain.push((x, y, z)));
            let cc =
                e4_range_with_csr(&c, 0..n, &k, &mut scratch, |x, y, z| packed.push((x, y, z)));
            assert_eq!(plain, packed, "E4 triangles {}", policy.name());
            assert_eq!(pc, cc, "E4 cost {}", policy.name());
        }
    }

    #[test]
    fn counting_matches_plain_and_reaches_block_popcounts() {
        let dg = fixture();
        let c = CompressedCsr::compress(&dg);
        // Public compressed counting == plain counting, byte-identical
        // CostReports, for every fundamental method under every policy.
        for policy in [
            KernelPolicy::PaperFaithful,
            KernelPolicy::adaptive(),
            KernelPolicy::bitset(),
        ] {
            let k = Kernels::build(policy, &dg);
            for method in Method::FUNDAMENTAL {
                let plain = method.count_with_kernels(&dg, &k);
                let packed = count_triangles_csr(&c, method, &k).unwrap();
                assert_eq!(plain, packed, "{method:?} {}", policy.name());
            }
        }
        // Non-fundamental methods are rejected, not silently mis-routed.
        let k = Kernels::build(KernelPolicy::bitset(), &dg);
        assert!(count_triangles_csr(&c, Method::E2, &k).is_err());
        // Under the bitset policy, counting-mode E1 must actually reach
        // the block popcount path from the public route — the
        // ROADMAP-noted gap this driver closes. Gates forced open (as in
        // `kernel::tests::meter_tallies_bitset_dispatch`) so the routing
        // itself, not the fixture's density, is what's under test.
        use crate::kernel::{AdaptiveConfig, BitsetConfig, KernelMeter};
        let forced = KernelPolicy::Bitset(BitsetConfig {
            min_short: 0,
            min_density: 0,
            fallback: AdaptiveConfig::default(),
        });
        let meter = std::sync::Arc::new(KernelMeter::new());
        let metered = Kernels::build(forced, &dg).with_meter(std::sync::Arc::clone(&meter));
        let counted = count_triangles_csr(&c, Method::E1, &metered).unwrap();
        let listed = e1_range_with_csr(
            &c,
            0..dg.n() as u32,
            &Kernels::build(forced, &dg),
            &mut DecodeScratch::new(),
            |_, _, _| {},
        );
        assert_eq!(counted, listed, "counting != listing under bitset");
        let rec = crate::obs::InMemoryRecorder::new();
        meter.flush_into(&rec);
        assert!(
            rec.counter(crate::obs::Counter::IntersectBitset) > 0,
            "block popcount path never engaged"
        );
        assert!(rec.counter(crate::obs::Counter::BitsetBlockSteps) > 0);
    }

    #[test]
    fn e1_compressed_matches_uncompressed() {
        let dg = fixture();
        let c = CompressedOut::compress(&dg);
        let mut plain = Vec::new();
        let plain_cost = Method::E1.run(&dg, |x, y, z| plain.push((x, y, z)));
        let mut packed = Vec::new();
        let packed_cost = e1_compressed(&c, |x, y, z| packed.push((x, y, z)));
        assert_eq!(plain, packed);
        assert_eq!(plain_cost.triangles, packed_cost.triangles);
        assert_eq!(plain_cost.local, packed_cost.local);
        assert_eq!(plain_cost.remote, packed_cost.remote);
    }

    #[test]
    fn compression_saves_space_on_relabeled_graphs() {
        let dg = fixture();
        let c = CompressedOut::compress(&dg);
        let raw_bytes = dg.m() * std::mem::size_of::<u32>();
        assert!(
            c.byte_len() < raw_bytes,
            "compressed {} vs raw {raw_bytes}",
            c.byte_len()
        );
        // both-direction CSR beats the 8 B/edge plain layout on list bytes
        let csr = CompressedCsr::compress(&dg);
        assert!(csr.bytes() > 0);
        let plain_lists = 2 * dg.m() as u64 * 4;
        let csr_lists = csr.bytes()
            - ((csr.out_offsets.len() + csr.in_offsets.len()) * std::mem::size_of::<usize>()
                + (csr.xs.len() + csr.ys.len()) * 4) as u64;
        assert!(
            csr_lists < plain_lists,
            "csr lists {csr_lists} vs plain {plain_lists}"
        );
    }

    #[test]
    fn empty_graph() {
        let g = trilist_graph::Graph::from_edges(2, &[]).unwrap();
        let dg = DirectedGraph::orient(&g, &Relabeling::identity(2));
        let c = CompressedOut::compress(&dg);
        assert_eq!(c.byte_len(), 0);
        let cost = e1_compressed(&c, |_, _, _| panic!("no triangles"));
        assert_eq!(cost.triangles, 0);
        let csr = CompressedCsr::compress(&dg);
        let mut scratch = DecodeScratch::new();
        let k = Kernels::paper();
        let cost = e1_range_with_csr(&csr, 0..2, &k, &mut scratch, |_, _, _| {
            panic!("no triangles")
        });
        assert_eq!(cost, CostReport::default());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn csr_round_trip_arbitrary_edge_sets(
                edges in proptest::collection::btree_set((0u32..40, 0u32..40), 0..200)
            ) {
                let pairs: Vec<(u32, u32)> = edges
                    .into_iter()
                    .filter(|(u, v)| u != v)
                    .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
                    .collect();
                let mut dedup = pairs;
                dedup.sort_unstable();
                dedup.dedup();
                let g = trilist_graph::Graph::from_edges(40, &dedup).unwrap();
                let dg = DirectedGraph::orient(&g, &Relabeling::identity(40));
                let c = CompressedCsr::compress(&dg);
                let mut buf = Vec::new();
                for v in 0..40u32 {
                    c.decode_out_into(v, &mut buf);
                    prop_assert_eq!(buf.as_slice(), dg.out(v));
                    c.decode_in_into(v, &mut buf);
                    prop_assert_eq!(buf.as_slice(), dg.in_(v));
                    prop_assert_eq!(c.x(v), dg.x(v));
                    prop_assert_eq!(c.y(v), dg.y(v));
                }
            }
        }
    }
}
