//! Varint/delta-compressed oriented adjacency.
//!
//! §2.4 notes that in some graphs "binary search may be impossible
//! altogether (e.g., with compressed neighbor lists)" — which disqualifies
//! the preprocessing shortcuts that need random access and makes the
//! sequential scanning of SEI the only intersection primitive available.
//! [`CompressedCsr`] provides that setting concretely: a both-direction
//! layout the whole runtime can run on. Lists are stored as LEB128-varint
//! gap codes (decodable only front-to-back); degree tables are kept
//! uncompressed so `X_v`/`Y_v` stay O(1) for the load model and the cost
//! formulas.
//!
//! The layout is a list reader, not a second set of drivers: its
//! `ListReader` impl (in [`source`](crate::source)) decodes each list the
//! one set of range drivers asks for into their scratch, so every paper
//! cost field **and** `pointer_advances` is byte-identical to the plain
//! layout under every kernel policy, and only wall-clock (decode cost vs.
//! memory bandwidth) differs. That trade is what the autotuner's
//! `compressed` flag weighs.

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
        // the byte streams grew by doubling; trim them so `bytes()`, which
        // counts lengths, is the heap actually held
        out_bytes.shrink_to_fit();
        in_bytes.shrink_to_fit();
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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn bytes_is_the_heap_held() {
        // the memory gauge is charged `bytes()`, so it must count what the
        // tables hold, not just what they use
        let c = CompressedCsr::compress(&fixture());
        let held = c.out_bytes.capacity()
            + c.in_bytes.capacity()
            + (c.out_offsets.capacity() + c.in_offsets.capacity()) * std::mem::size_of::<usize>()
            + (c.xs.capacity() + c.ys.capacity()) * std::mem::size_of::<u32>();
        assert_eq!(c.bytes(), held as u64);
    }

    #[test]
    fn compression_saves_space_on_relabeled_graphs() {
        // both-direction CSR beats the 8 B/edge plain layout on list bytes
        let dg = fixture();
        let csr = CompressedCsr::compress(&dg);
        let plain_lists = 2 * dg.m() * 4;
        let csr_lists = csr.out_bytes.len() + csr.in_bytes.len();
        assert!(
            csr_lists < plain_lists,
            "csr lists {csr_lists} vs plain {plain_lists}"
        );
    }

    #[test]
    fn empty_graph() {
        let g = trilist_graph::Graph::from_edges(2, &[]).unwrap();
        let dg = DirectedGraph::orient(&g, &Relabeling::identity(2));
        let csr = CompressedCsr::compress(&dg);
        assert_eq!(csr.m(), 0);
        assert_eq!(csr.out_bytes.len() + csr.in_bytes.len(), 0);
        let mut buf = vec![9];
        csr.decode_out_into(1, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(csr.out_iter(0).count() + csr.in_iter(1).count(), 0);
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
