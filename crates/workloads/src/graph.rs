//! Synthetic graph inputs in compressed-sparse-row form.
//!
//! Two generators cover the paper's inputs: uniform random graphs (GAPBS /
//! Ligra defaults) and R-MAT/Kronecker graphs (Graph500). Adjacency lists
//! are sorted, making them usable for intersection-based algorithms
//! (triangle counting).

use crate::layout::{AddressSpace, VArray};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Virtual-address layout of a CSR graph: the 8-byte offsets array and the
/// 4-byte targets array, as GAPBS/Ligra lay them out.
#[derive(Clone, Copy, Debug)]
pub struct GraphLayout {
    /// `vertices + 1` offsets, 8 bytes each.
    pub offsets: VArray,
    /// `edges` target vertex ids, 4 bytes each.
    pub targets: VArray,
}

impl GraphLayout {
    /// Reserves address space for `graph`'s CSR arrays.
    pub fn new(space: &mut AddressSpace, graph: &CsrGraph) -> Self {
        GraphLayout {
            offsets: space.array(u64::from(graph.vertices()) + 1, 8),
            targets: space.array(graph.edges().max(1), 4),
        }
    }
}

/// A directed graph in CSR form (generated symmetric: every edge is added
/// in both directions, so in- and out-adjacency coincide).
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Uniform (Erdős–Rényi-style) random graph with `n` vertices and
    /// about `degree` edges per vertex.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform(n: u32, degree: u32, seed: u64) -> Self {
        assert!(n > 0, "graph must have vertices");
        let mut rng = SmallRng::seed_from_u64(seed);
        let edges = u64::from(n) * u64::from(degree) / 2;
        let pairs =
            (0..edges).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect::<Vec<_>>();
        Self::build(n, pairs)
    }

    /// R-MAT (Kronecker) graph with the Graph500 parameters
    /// (a, b, c) = (0.57, 0.19, 0.19).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn rmat(n: u32, degree: u32, seed: u64) -> Self {
        assert!(n > 0 && n.is_power_of_two(), "R-MAT needs a power-of-two vertex count");
        Self::build(n, rmat_pairs(n, degree, seed))
    }

    /// Builds a symmetric CSR from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `n`, or if the graph would hold
    /// more than `u32::MAX` directed edges (the bucket cursors are `u32`).
    pub fn from_pairs(n: u32, pairs: &[(u32, u32)]) -> Self {
        Self::build(n, pairs)
    }

    /// [`from_pairs`](Self::from_pairs) over a borrowed or an owned edge
    /// list; an owned list is freed once partitioned, before the offsets
    /// are allocated.
    ///
    /// The build is cache-blocked (DESIGN.md §3). A bucket is a run of
    /// `2^local` consecutive vertices, so it owns one contiguous span of
    /// `targets`. Both directions of every edge are first partitioned
    /// into their source's bucket as packed `(source mod 2^local, target)`
    /// keys; then each bucket is radix-sorted on its own, and its sorted
    /// keys are exactly its vertices' ascending adjacency lists, one after
    /// the other.
    fn build(n: u32, pairs: impl AsRef<[(u32, u32)]>) -> Self {
        let edges = pairs.as_ref().len().checked_mul(2).and_then(|e| u32::try_from(e).ok());
        let edges = edges.expect("a CSR graph holds at most u32::MAX directed edges");
        let packing = KeyPacking::new(n);
        let buckets = n.div_ceil(1 << packing.local) as usize;
        // Entries per bucket; an exclusive prefix sum then turns `starts`
        // into each bucket's first index, which is also the final offset
        // of the bucket's first vertex.
        let mut starts = vec![0u32; buckets + 1];
        for &(u, v) in pairs.as_ref() {
            assert!(u < n && v < n, "edge ({u}, {v}) has an endpoint not below {n}");
            starts[packing.bucket(u)] += 1;
            starts[packing.bucket(v)] += 1;
        }
        let widest = starts.iter().copied().max().unwrap_or(0);
        exclusive_prefix_sum(&mut starts);
        let mut targets = vec![0u32; edges as usize];
        let mut cursor = starts.clone();
        for &(u, v) in pairs.as_ref() {
            for (from, to) in [(u, v), (v, u)] {
                let slot = &mut cursor[packing.bucket(from)];
                targets[*slot as usize] = packing.key(from, to);
                *slot += 1;
            }
        }
        drop((cursor, pairs));

        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut sorter = BucketSorter::new(packing, widest as usize);
        for (bucket, span) in starts.windows(2).enumerate() {
            let (lo, hi) = (span[0] as usize, span[1] as usize);
            let first = (bucket as u32) << packing.local;
            let vertices = (n - first).min(1 << packing.local);
            sorter.sort(&mut targets[lo..hi], lo as u64, vertices, &mut offsets);
        }
        offsets.push(u64::from(edges));
        CsrGraph { offsets, targets }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges (twice the undirected edge count).
    pub fn edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Index range of vertex `u`'s adjacency in the target array.
    #[inline]
    pub fn neighbors_range(&self, u: u32) -> (u64, u64) {
        debug_assert!(u < self.vertices());
        let u = u as usize;
        (self.offsets[u], self.offsets[u + 1])
    }

    /// The `i`-th entry of the flat target array.
    #[inline]
    pub fn target(&self, i: u64) -> u32 {
        debug_assert!(i < self.edges());
        self.targets[i as usize]
    }

    /// Degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> u64 {
        let (lo, hi) = self.neighbors_range(u);
        hi - lo
    }
}

/// Bucketing and key packing of the cache-blocked CSR build: `vbits`
/// bits hold any vertex id, a bucket is `id >> local`, and a directed
/// entry `u → v` is stored in `u`'s bucket as the key
/// `(u mod 2^local) << vbits | v`, at most 32 bits. Ascending keys are
/// ascending `(u, v)` within the bucket.
#[derive(Clone, Copy, Debug)]
struct KeyPacking {
    vbits: u32,
    local: u32,
}

impl KeyPacking {
    /// At most 1024 vertices per bucket, fewer once the ids need more
    /// than 22 bits (512 at 2^23).
    fn new(n: u32) -> Self {
        let vbits = 32 - n.saturating_sub(1).leading_zeros();
        KeyPacking { vbits, local: 10.min(32 - vbits) }
    }

    #[inline]
    fn bucket(self, u: u32) -> usize {
        (u >> self.local) as usize
    }

    /// `local` is 0 when `vbits` is 32, so widening keeps the shifts in
    /// range without a branch.
    #[inline]
    fn key(self, u: u32, v: u32) -> u32 {
        let local = u64::from(u) & ((1 << self.local) - 1);
        ((local << self.vbits) | u64::from(v)) as u32
    }

    #[inline]
    fn local_of(self, key: u32) -> u32 {
        (u64::from(key) >> self.vbits) as u32
    }

    #[inline]
    fn target_of(self, key: u32) -> u32 {
        (u64::from(key) & ((1 << self.vbits) - 1)) as u32
    }
}

/// Per-bucket LSD radix sort of the cache-blocked CSR build: two
/// passes on the target id (its low and high halves), then a counting
/// pass on the local source index, whose histogram is also the bucket's
/// slice of the offsets. Scratch buffers and histograms are reused
/// across buckets.
#[derive(Debug)]
struct BucketSorter {
    packing: KeyPacking,
    /// Width of the low target-id digit; the high digit is the rest.
    low_bits: u32,
    scratch: [Vec<u32>; 2],
    /// Histograms of the low target digit, the high target digit and the
    /// local source index.
    counts: [Vec<u32>; 3],
}

impl BucketSorter {
    /// A sorter for buckets of at most `capacity` keys.
    fn new(packing: KeyPacking, capacity: usize) -> Self {
        let low_bits = packing.vbits.div_ceil(2);
        let high_bits = packing.vbits - low_bits;
        BucketSorter {
            packing,
            low_bits,
            scratch: [vec![0; capacity], vec![0; capacity]],
            counts: [vec![0; 1 << low_bits], vec![0; 1 << high_bits], vec![0; 1 << packing.local]],
        }
    }

    /// Sorts the keys of a bucket of `vertices` vertices whose first entry
    /// sits at index `lo` of the targets, leaves the target ids in place
    /// of the keys, and pushes the bucket's `vertices` offsets.
    fn sort(&mut self, keys: &mut [u32], lo: u64, vertices: u32, offsets: &mut Vec<u64>) {
        let packing = self.packing;
        let shift = self.low_bits;
        let [low, high, local] = &mut self.counts;
        let (low_mask, high_mask) = ((low.len() - 1) as u32, (high.len() - 1) as u32);
        let low_digit = |key: u32| (key & low_mask) as usize;
        let high_digit = |key: u32| ((key >> shift) & high_mask) as usize;
        let local_digit = |key: u32| packing.local_of(key) as usize;
        let local = &mut local[..vertices as usize];
        for histogram in [&mut *low, &mut *high, &mut *local] {
            histogram.fill(0);
        }
        for &key in keys.iter() {
            low[low_digit(key)] += 1;
            high[high_digit(key)] += 1;
            local[local_digit(key)] += 1;
        }
        for histogram in [&mut *low, &mut *high, &mut *local] {
            exclusive_prefix_sum(histogram);
        }
        offsets.extend(local.iter().map(|&start| lo + u64::from(start)));
        let [first, second] = &mut self.scratch;
        let (first, second) = (&mut first[..keys.len()], &mut second[..keys.len()]);
        scatter(keys, first, low, low_digit, |key| key);
        scatter(first, second, high, high_digit, |key| key);
        scatter(second, keys, local, local_digit, |key| packing.target_of(key));
    }
}

/// Turns counts into exclusive running totals, in place.
fn exclusive_prefix_sum(slots: &mut [u32]) {
    let mut acc = 0u32;
    for slot in slots {
        let count = *slot;
        *slot = acc;
        acc += count;
    }
}

/// One stable counting-sort pass: each key of `from`, in order, is
/// written as `value(key)` to the next slot of its digit, whose cursors
/// (`cursor`, exclusive prefix sums of the digit histogram) it advances.
#[inline]
fn scatter(
    from: &[u32],
    to: &mut [u32],
    cursor: &mut [u32],
    digit: impl Fn(u32) -> usize,
    value: impl Fn(u32) -> u32,
) {
    for &key in from {
        let slot = &mut cursor[digit(key)];
        to[*slot as usize] = value(key);
        *slot += 1;
    }
}

/// `rng.gen::<f64>()` is `(next_u64() >> 11) · 2^-53`, exactly, and each
/// quadrant threshold lies in [0.5, 1), where `t · 2^53` is an integer. So
/// `gen::<f64>() < t` holds exactly when `next_u64() >> 11 < t · 2^53`
/// (DESIGN.md §3).
const fn draw_threshold(t: f64) -> u64 {
    (t * (1u64 << 53) as f64) as u64
}

/// Cumulative R-MAT quadrant probabilities a, a + b and a + b + c.
const T_A: u64 = draw_threshold(0.57);
const T_AB: u64 = draw_threshold(0.76);
const T_ABC: u64 = draw_threshold(0.95);

/// The R-MAT quadrant of a raw draw `x = next_u64()`: the number of
/// thresholds its 53 random bits reach, 0, 1, 2 or 3 for a, b, c, d.
/// Its high bit is the quadrant's u bit and its low bit the v bit:
/// (0, 0), (0, 1), (1, 0), (1, 1).
const fn quadrant(x: u64) -> u8 {
    let m = x >> 11;
    (m >= T_A) as u8 + (m >= T_AB) as u8 + (m >= T_ABC) as u8
}

/// Marks a top byte whose draws straddle a threshold.
const STRADDLES: u8 = 4;

/// The quadrant shared by every draw with a given top byte, or
/// [`STRADDLES`] for the three bytes that hold a threshold.
const QUADRANT_BY_TOP_BYTE: [u8; 256] = {
    let mut table = [0; 256];
    let mut byte = 0;
    while byte < 256 {
        let low = (byte as u64) << 56;
        let (first, last) = (quadrant(low), quadrant(low | ((1 << 56) - 1)));
        table[byte] = if first == last { first } else { STRADDLES };
        byte += 1;
    }
    table
};

/// The `n · degree / 2` R-MAT edges of [`CsrGraph::rmat`], one quadrant
/// draw per vertex-id bit, most significant first. A draw's top byte
/// settles its quadrant through a table in 253 draws of 256; the other
/// three compare all 53 bits with the thresholds. The quadrants of an
/// edge are packed two bits each, so u is the odd bits and v the even
/// bits.
fn rmat_pairs(n: u32, degree: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bits = n.trailing_zeros();
    let edges = u64::from(n) * u64::from(degree) / 2;
    let mut pairs = Vec::with_capacity(edges as usize);
    for _ in 0..edges {
        let mut quadrants = 0u64;
        for _ in 0..bits {
            let x = rng.next_u64();
            let mut q = QUADRANT_BY_TOP_BYTE[(x >> 56) as usize];
            if q == STRADDLES {
                q = quadrant(x);
            }
            quadrants = (quadrants << 2) | u64::from(q);
        }
        pairs.push((even_bits(quadrants >> 1), even_bits(quadrants)));
    }
    pairs
}

/// Gathers bits 0, 2, 4, … 62 of `x` into a `u32`, in order.
fn even_bits(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
    x as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_graph_shape() {
        let g = CsrGraph::uniform(1000, 8, 42);
        assert_eq!(g.vertices(), 1000);
        // n * degree / 2 undirected edges, symmetrized.
        assert_eq!(g.edges(), 8000);
        let total: u64 = (0..1000).map(|u| g.degree(u)).sum();
        assert_eq!(total, g.edges());
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = CsrGraph::uniform(500, 10, 7);
        for u in 0..500 {
            let (lo, hi) = g.neighbors_range(u);
            for i in lo..hi.saturating_sub(1) {
                assert!(g.target(i) <= g.target(i + 1));
            }
        }
    }

    #[test]
    fn symmetric_edges() {
        let g = CsrGraph::from_pairs(4, &[(0, 1), (1, 2)]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.degree(3), 0);
        let (lo, _) = g.neighbors_range(0);
        assert_eq!(g.target(lo), 1);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = CsrGraph::rmat(1 << 12, 16, 3);
        assert_eq!(g.vertices(), 1 << 12);
        let max_deg = (0..g.vertices()).map(|u| g.degree(u)).max().unwrap();
        let avg = g.edges() / u64::from(g.vertices());
        assert!(
            max_deg > avg * 8,
            "R-MAT must produce heavy-tailed degrees (max {max_deg}, avg {avg})"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CsrGraph::uniform(256, 8, 9);
        let b = CsrGraph::uniform(256, 8, 9);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
    }

    /// FNV-1a over the offsets (`u64` LE) and then the targets (`u32` LE).
    fn digest(g: &CsrGraph) -> u64 {
        let bytes = g.offsets.iter().flat_map(|o| o.to_le_bytes());
        let bytes = bytes.chain(g.targets.iter().flat_map(|t| t.to_le_bytes()));
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Digests recorded with the branchy `f64` generator and the
    /// three-array `from_pairs` that preceded the integer-threshold build:
    /// the factory's two Tiny inputs (seeds `42 ^ 0x1111`, `42 ^ 0x2222`)
    /// and a 2^16-vertex, degree-16 graph.
    #[test]
    fn graphs_match_their_recorded_digests() {
        type Build = fn(u32, u32, u64) -> CsrGraph;
        let pinned: [(Build, u32, u32, u64, u64); 6] = [
            (CsrGraph::rmat, 1 << 13, 8, 42 ^ 0x1111, 0xb54a_bc85_8e89_b746),
            (CsrGraph::rmat, 1 << 13, 8, 42 ^ 0x2222, 0xe100_0544_8964_6793),
            (CsrGraph::rmat, 1 << 16, 16, 42, 0xa2b8_2378_fdda_a403),
            (CsrGraph::uniform, 1 << 13, 8, 42 ^ 0x1111, 0x5557_4090_61f1_5b3c),
            (CsrGraph::uniform, 1 << 13, 8, 42 ^ 0x2222, 0xc7fb_e371_a45b_b55e),
            (CsrGraph::uniform, 1 << 16, 16, 42, 0x5688_e1b9_2527_c2d3),
        ];
        for (i, (build, n, degree, seed, want)) in pinned.into_iter().enumerate() {
            let got = digest(&build(n, degree, seed));
            assert_eq!(got, want, "graph {i}: digest {got:016x}, recorded {want:016x}");
        }
    }

    /// The quadrant draw as `rmat` made it before the integer thresholds:
    /// one `f64` per bit and a four-way branch.
    fn branchy_rmat_pairs(n: u32, degree: u32, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let edges = u64::from(n) * u64::from(degree) / 2;
        let mut pairs = Vec::new();
        for _ in 0..edges {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..n.trailing_zeros() {
                u <<= 1;
                v <<= 1;
                let r: f64 = rng.gen();
                if r < 0.57 {
                } else if r < 0.76 {
                    v |= 1;
                } else if r < 0.95 {
                    u |= 1;
                } else {
                    u |= 1;
                    v |= 1;
                }
            }
            pairs.push((u, v));
        }
        pairs
    }

    /// Pairs, not graphs: `from_pairs` symmetrises, so a generator that
    /// swapped u and v would still build the same CSR.
    #[test]
    fn integer_thresholds_draw_the_branchy_pairs() {
        for bits in 0..=14u32 {
            for degree in 1..=16u32 {
                for k in 0..3 {
                    let seed = (u64::from(bits) << 32) ^ (u64::from(degree) << 8) ^ k;
                    assert_eq!(
                        rmat_pairs(1 << bits, degree, seed),
                        branchy_rmat_pairs(1 << bits, degree, seed),
                        "n 2^{bits}, degree {degree}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn thresholds_are_the_exact_quadrant_bounds() {
        for (t, threshold) in [(0.57, T_A), (0.76, T_AB), (0.95, T_ABC)] {
            let scale = 1.0 / (1u64 << 53) as f64;
            assert_eq!(threshold as f64 * scale, t, "{t} is a multiple of 2^-53");
            assert!(((threshold - 1) as f64 * scale) < t);
        }
    }

    #[test]
    fn top_byte_table_agrees_with_the_exact_quadrant() {
        let straddling: Vec<u64> = [T_A, T_AB, T_ABC].iter().map(|t| (t << 11) >> 56).collect();
        for byte in 0..256u64 {
            let (low, high) = (byte << 56, (byte << 56) | ((1 << 56) - 1));
            let entry = QUADRANT_BY_TOP_BYTE[byte as usize];
            if straddling.contains(&byte) {
                assert_eq!(entry, STRADDLES, "byte {byte:#x}");
                assert!(quadrant(low) < quadrant(high), "byte {byte:#x}");
            } else {
                assert_eq!((entry, entry), (quadrant(low), quadrant(high)), "byte {byte:#x}");
            }
        }
        for (q, t) in [T_A, T_AB, T_ABC].into_iter().enumerate() {
            assert_eq!((quadrant((t << 11) - 1), quadrant(t << 11)), (q as u8, q as u8 + 1));
        }
        assert_eq!(even_bits(0b1110_0100), 0b1010);
        assert_eq!(even_bits(u64::MAX), u32::MAX);
    }

    #[test]
    fn from_pairs_edge_cases() {
        let empty = CsrGraph::from_pairs(3, &[]);
        assert_eq!((empty.offsets.as_slice(), empty.edges()), (&[0, 0, 0, 0][..], 0));

        // A self-loop is stored twice in its own adjacency.
        let looped = CsrGraph::from_pairs(2, &[(1, 1)]);
        assert_eq!(looped.offsets, [0, 0, 2]);
        assert_eq!(looped.targets, [1, 1]);

        // A duplicate edge is kept, once per occurrence and direction.
        let doubled = CsrGraph::from_pairs(3, &[(2, 0), (0, 2)]);
        assert_eq!(doubled.offsets, [0, 2, 2, 4]);
        assert_eq!(doubled.targets, [2, 2, 0, 0]);

        let single = CsrGraph::from_pairs(1, &[(0, 0), (0, 0)]);
        assert_eq!((single.vertices(), single.degree(0)), (1, 4));
        assert_eq!(CsrGraph::rmat(1, 8, 5).targets, [0; 8]);
    }

    /// Pins the Small shared graph (2^22 vertices, degree 8), whose
    /// buckets are large enough to exercise the hub buckets of the
    /// bucketed build; digest recorded in EXPERIMENTS.md ("Standalone
    /// build").
    #[test]
    fn small_shared_graph_matches_its_recorded_digest() {
        let got = digest(&CsrGraph::rmat(1 << 22, 8, 42 ^ 0x1111));
        assert_eq!(got, 0x8b24_7673_9a28_1b57, "digest {got:016x}");
    }

    /// The build `from_pairs` replaced: a per-vertex `u32` cursor, a random
    /// scatter of both directions of every edge, then one `sort_unstable`
    /// per adjacency list.
    fn reference_from_pairs(n: u32, pairs: &[(u32, u32)]) -> CsrGraph {
        let mut cursor = vec![0u32; n as usize];
        for &(u, v) in pairs {
            cursor[u as usize] += 1;
            cursor[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut acc = 0u32;
        for slot in &mut cursor {
            offsets.push(u64::from(acc));
            let degree = *slot;
            *slot = acc;
            acc += degree;
        }
        offsets.push(u64::from(acc));
        let mut targets = vec![0u32; acc as usize];
        for &(u, v) in pairs {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for u in 0..n as usize {
            targets[offsets[u] as usize..offsets[u + 1] as usize].sort_unstable();
        }
        CsrGraph { offsets, targets }
    }

    fn assert_matches_reference(n: u32, pairs: &[(u32, u32)], case: &str) {
        let (got, want) = (CsrGraph::from_pairs(n, pairs), reference_from_pairs(n, pairs));
        assert_eq!(got.offsets, want.offsets, "{case}: offsets");
        assert_eq!(got.targets, want.targets, "{case}: targets");
    }

    #[test]
    fn from_pairs_matches_the_reference_build() {
        assert_matches_reference(0, &[], "no vertices");
        assert_matches_reference(5, &[], "no edges");
        assert_matches_reference(1, &[(0, 0), (0, 0), (0, 0)], "one vertex");
        let loops_and_duplicates = [(3, 3), (1, 4), (4, 1), (1, 4), (0, 6), (3, 3), (6, 0), (2, 2)];
        assert_matches_reference(7, &loops_and_duplicates, "self-loops and duplicates");
        // Non-power-of-two counts: a single partial bucket, and several
        // buckets of 1024 vertices with a partial last one.
        for n in [1000, 2500, 5000] {
            let mut rng = SmallRng::seed_from_u64(u64::from(n));
            let pairs = (0..4 * n).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)));
            assert_matches_reference(n, &pairs.collect::<Vec<_>>(), &format!("uniform n {n}"));
        }
    }

    /// Skewed R-MAT pairs on both bucket widths: 1024-vertex buckets up to
    /// 2^22 vertices and 512-vertex buckets at 2^23, with a prefix of the
    /// pair stream so the 2^22- and 2^23-vertex builds stay small.
    #[test]
    fn from_pairs_matches_the_reference_build_on_rmat_pairs() {
        for (bits, local) in [(13u32, 10), (22, 10), (23, 9)] {
            assert_eq!(KeyPacking::new(1 << bits).local, local, "2^{bits} vertices");
            let mut pairs = rmat_pairs(1 << bits, 1, 42 ^ u64::from(bits));
            pairs.truncate(1 << 17);
            assert_matches_reference(1 << bits, &pairs, &format!("R-MAT 2^{bits}"));
        }
    }

    #[test]
    #[should_panic(expected = "not below 4")]
    fn from_pairs_rejects_an_endpoint_out_of_range() {
        CsrGraph::from_pairs(4, &[(0, 1), (2, 4)]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rmat_rejects_non_power_of_two() {
        CsrGraph::rmat(1000, 8, 1);
    }
}
