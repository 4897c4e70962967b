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
        Self::from_pairs(n, &pairs)
    }

    /// R-MAT (Kronecker) graph with the Graph500 parameters
    /// (a, b, c) = (0.57, 0.19, 0.19).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn rmat(n: u32, degree: u32, seed: u64) -> Self {
        assert!(n > 0 && n.is_power_of_two(), "R-MAT needs a power-of-two vertex count");
        Self::from_pairs(n, &rmat_pairs(n, degree, seed))
    }

    /// Builds a symmetric CSR from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `n`, or if the graph would hold
    /// more than `u32::MAX` directed edges (the insertion cursor is `u32`).
    pub fn from_pairs(n: u32, pairs: &[(u32, u32)]) -> Self {
        let edges = pairs.len().checked_mul(2).and_then(|e| u32::try_from(e).ok());
        let edges = edges.expect("a CSR graph holds at most u32::MAX directed edges");
        // Degrees first; an exclusive prefix sum then turns the same array
        // into each vertex's insertion cursor.
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
        offsets.push(u64::from(edges));
        let mut targets = vec![0u32; edges as usize];
        for &(u, v) in pairs {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        drop(cursor);
        // Sorted adjacency for intersection algorithms.
        for u in 0..n as usize {
            let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
            targets[lo..hi].sort_unstable();
        }
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

/// The `n · degree / 2` R-MAT edges of [`CsrGraph::rmat`], one quadrant
/// draw per vertex-id bit, most significant first. Quadrants a, b, c, d
/// set (u, v) bits (0, 0), (0, 1), (1, 0), (1, 1); comparing the draw
/// with the three integer thresholds yields both bits without a branch.
fn rmat_pairs(n: u32, degree: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bits = n.trailing_zeros();
    let edges = u64::from(n) * u64::from(degree) / 2;
    let mut pairs = Vec::with_capacity(edges as usize);
    for _ in 0..edges {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..bits {
            let draw = rng.next_u64() >> 11;
            let (past_a, past_ab, past_abc) =
                (u32::from(draw >= T_A), u32::from(draw >= T_AB), u32::from(draw >= T_ABC));
            u = (u << 1) | past_ab;
            v = (v << 1) | (past_a ^ past_ab ^ past_abc);
        }
        pairs.push((u, v));
    }
    pairs
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

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rmat_rejects_non_power_of_two() {
        CsrGraph::rmat(1000, 8, 1);
    }
}
