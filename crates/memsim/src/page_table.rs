//! A four-level radix page table allocated in simulated physical memory.
//!
//! The paper (Section III): *"we allocate a four-level radix tree data
//! structure as the page table. The page table contents are cached on the
//! processor caches as in the real hardware."* [`PageTable::translate`]
//! returns the physical addresses of the page-table entries a hardware
//! walker would read, so the walker can send those loads through the data
//! caches.
//!
//! Pages are mapped on demand (first touch), modeling a demand-paging OS.
//! Physical frames come from a [`FrameAllocator`] that scatters allocations
//! over the frame space with a bijective multiplier, emulating the
//! fragmented VA→PA mappings of a long-running system.
//!
//! The mapping grain is set by the [`AllocPolicy`]:
//!
//! * [`AllocPolicy::Base4K`] — every leaf is a 4 KB PTE (the paper's
//!   configuration, byte-identical to the pre-page-size code);
//! * [`AllocPolicy::Uniform`] — every mapping is a PDE (2 MB) or PDPTE
//!   (1 GB) leaf covering a physically contiguous, aligned frame region,
//!   so walks terminate one or two levels early;
//! * [`AllocPolicy::Promote2M`] — reservation-based promotion in the style
//!   of FreeBSD's superpage support: the first touch in a 2 MB-aligned
//!   virtual region reserves a contiguous 2 MB frame range and carves
//!   4 KB pages out of it; once enough distinct base pages have been
//!   touched, the PDE is flipped to a huge mapping. Because the 4 KB
//!   frames were carved from the reservation, the promoted mapping
//!   translates every address exactly as before — stale 4 KB TLB entries
//!   stay coherent and promotion simply shortens future walks.
//!
//! Host storage is dense. Radix nodes live in one arena, in creation
//! order, and an interior slot names its child both ways: by the child's
//! simulated frame (the address the walker loads through the caches) and
//! by its arena index (how the host follows the pointer). A walk is then
//! four array reads, with no hashing, whatever the footprint.

use dpc_types::{invariant, AllocPolicy, PageSize, Pfn, PhysAddr, Vpn};

/// Entries per page-table node (512 × 8 B = one 4 KiB page).
pub const NODE_ENTRIES: usize = 512;

/// Slot bit 0: the entry maps something.
const SLOT_PRESENT: u64 = 1;
/// Slot bit 1: the entry is a huge leaf (PDE/PDPTE mapping), not a
/// pointer to a child node.
const SLOT_HUGE: u64 = 2;
/// Slot bits 36–63: an interior slot's child node, as an index into the
/// arena. Bits 0–35 keep `(pfn << 2) | huge | present`, and a simulated
/// PFN has at most 34 bits (the frame space), so the two never overlap.
const SLOT_CHILD_SHIFT: u32 = 36;
/// Slot bits 0–35: the simulated PFN and the flags.
const SLOT_PFN_MASK: u64 = (1 << SLOT_CHILD_SHIFT) - 1;
/// Nodes the 28 child-index bits can name (2^28 nodes, 1 TiB of table).
const MAX_NODES: usize = 1 << (64 - SLOT_CHILD_SHIFT);
/// Arena index of the root (PML4) node.
const ROOT: usize = 0;

/// A leaf slot mapping the frame (or huge frame region) at `pfn`.
#[inline]
const fn leaf_slot(pfn: Pfn, huge: bool) -> u64 {
    (pfn.raw() << 2) | SLOT_PRESENT | if huge { SLOT_HUGE } else { 0 }
}

/// An interior slot pointing at the node simulated at `pfn` and stored at
/// arena index `child`.
#[inline]
const fn interior_slot(pfn: Pfn, child: usize) -> u64 {
    ((child as u64) << SLOT_CHILD_SHIFT) | leaf_slot(pfn, false)
}

#[inline]
const fn slot_pfn(slot: u64) -> Pfn {
    Pfn::new((slot & SLOT_PFN_MASK) >> 2)
}

#[inline]
const fn slot_child(slot: u64) -> usize {
    (slot >> SLOT_CHILD_SHIFT) as usize
}

#[inline]
const fn slot_is_huge(slot: u64) -> bool {
    slot & SLOT_HUGE != 0
}

/// Allocates unique physical frames.
///
/// Frame numbers are produced by a bijective affine map over the frame
/// space so that consecutively-allocated pages do not occupy consecutive
/// frames. In *partitioned* mode (any huge-page policy) the space is
/// split by high bits: singleton 4 KB frames keep bit 33 clear, while
/// aligned, physically contiguous 2 MB / 1 GB regions live above it, so
/// regions can be handed out without colliding with scattered singletons.
///
/// The map is invertible: [`FrameAllocator::ordinal`] recovers from any
/// frame the allocation that produced it, which lets per-frame tables be
/// dense vectors indexed in allocation order.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    next: u64,
    next_2m: u64,
    next_1g: u64,
    partitioned: bool,
}

/// The frame space is 2^34 frames (64 TiB of simulated physical memory);
/// the multiplier is odd, hence invertible modulo every power of two.
const FRAME_SPACE_BITS: u32 = 34;
const FRAME_MULT: u64 = 0x9E37_79B9_7F4A_7C15 | 1;
/// The inverse of [`FRAME_MULT`] modulo 2^64, hence modulo every smaller
/// power of two: `scattered * FRAME_MULT_INV` undoes the scatter.
const FRAME_MULT_INV: u64 = inverse_mod_2_64(FRAME_MULT);
/// Partitioned mode: singletons scatter below bit 33.
const SINGLETON_BITS: u32 = 33;
/// Partitioned mode: 2 MB regions (512 frames, 9 offset bits) scatter
/// their base over 23 bits at `1 << 33`.
const REGION_2M_BITS: u32 = 23;
/// Partitioned mode: 1 GB regions (2^18 frames) scatter their base over
/// 14 bits at `(1 << 33) | (1 << 32)`.
const REGION_1G_BITS: u32 = 14;

/// The inverse of the odd `m` modulo 2^64, by Newton's iteration: each
/// step doubles the number of correct low bits, from the 3 that `m`
/// itself gets right (`m * m ≡ 1 mod 8` for odd `m`).
const fn inverse_mod_2_64(m: u64) -> u64 {
    let mut inv = m;
    let mut step = 0;
    while step < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        step += 1;
    }
    inv
}

/// The allocation space a frame was handed out from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameSpace {
    /// Scattered single frames from [`FrameAllocator::alloc`] (every
    /// frame of a legacy-mode allocator).
    Singleton,
    /// Frames inside the aligned regions
    /// [`FrameAllocator::alloc_region`] hands out for this size.
    Region(PageSize),
}

/// A frame's place in allocation order, recovered by
/// [`FrameAllocator::ordinal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameOrdinal {
    /// Which allocator call produced the frame.
    pub space: FrameSpace,
    /// For a singleton, the 1-based number of the `alloc` call that
    /// returned it. For a region frame, `(n << unit_shift) | offset`: `n`
    /// is the 1-based number of the `alloc_region` call for that size,
    /// `offset` the frame's 4 KB offset inside the region. Either way the
    /// indices of one space are dense in allocation order.
    pub index: u64,
}

impl FrameAllocator {
    /// Creates an allocator in the legacy single-grain mode: the exact
    /// allocation sequence of the paper's 4 KB configuration.
    pub fn new() -> Self {
        FrameAllocator { next: 1, next_2m: 1, next_1g: 1, partitioned: false }
    }

    /// Creates an allocator whose frame space is partitioned between
    /// scattered singleton frames and aligned huge regions.
    pub fn partitioned() -> Self {
        FrameAllocator { next: 1, next_2m: 1, next_1g: 1, partitioned: true }
    }

    /// Allocates a fresh, never-before-returned 4 KB frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame space is exhausted (far beyond any simulated
    /// footprint).
    pub fn alloc(&mut self) -> Pfn {
        let bits = if self.partitioned { SINGLETON_BITS } else { FRAME_SPACE_BITS };
        assert!(self.next < (1 << bits), "physical frame space exhausted");
        let scattered = self.next.wrapping_mul(FRAME_MULT) & ((1 << bits) - 1);
        self.next += 1;
        Pfn::new(scattered)
    }

    /// Allocates an aligned, physically contiguous region of 4 KB frames
    /// spanning one page of `size`, returning its base frame.
    ///
    /// # Panics
    ///
    /// Panics if the allocator is not partitioned, if `size` is 4 KB
    /// (use [`FrameAllocator::alloc`]), or if the region space is
    /// exhausted.
    pub fn alloc_region(&mut self, size: PageSize) -> Pfn {
        assert!(self.partitioned, "huge regions require a partitioned allocator");
        let base = match size {
            // dpc-lint: allow(hot-path::panic) -- API-misuse guard; translate_uniform/translate_promote only request huge regions
            PageSize::Size4K => panic!("4 KB frames come from alloc(), not alloc_region()"),
            PageSize::Size2M => {
                assert!(self.next_2m < (1 << REGION_2M_BITS), "2 MB region space exhausted");
                let scattered = self.next_2m.wrapping_mul(FRAME_MULT) & ((1 << REGION_2M_BITS) - 1);
                self.next_2m += 1;
                (1 << 33) | (scattered << PageSize::Size2M.unit_shift())
            }
            PageSize::Size1G => {
                assert!(self.next_1g < (1 << REGION_1G_BITS), "1 GB region space exhausted");
                let scattered = self.next_1g.wrapping_mul(FRAME_MULT) & ((1 << REGION_1G_BITS) - 1);
                self.next_1g += 1;
                (1 << 33) | (1 << 32) | (scattered << PageSize::Size1G.unit_shift())
            }
        };
        Pfn::new(base)
    }

    /// Number of singleton frames handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next - 1
    }

    /// Where `pfn` sits in allocation order, or `None` if no call so far
    /// returned it (or a region containing it). Undoes the scatter by
    /// multiplying with the multiplier's modular inverse; a few ALU
    /// operations, no table.
    pub fn ordinal(&self, pfn: Pfn) -> Option<FrameOrdinal> {
        let raw = pfn.raw();
        if raw >> FRAME_SPACE_BITS != 0 {
            return None;
        }
        // (space, scattered bits, their width, calls made, offset bits)
        let (space, scattered, bits, issued, offset_shift) = if !self.partitioned {
            (FrameSpace::Singleton, raw, FRAME_SPACE_BITS, self.next, 0)
        } else {
            match raw >> 32 {
                0 | 1 => (FrameSpace::Singleton, raw, SINGLETON_BITS, self.next, 0),
                2 => {
                    let shift = PageSize::Size2M.unit_shift();
                    let region = FrameSpace::Region(PageSize::Size2M);
                    (region, raw >> shift, REGION_2M_BITS, self.next_2m, shift)
                }
                _ => {
                    let shift = PageSize::Size1G.unit_shift();
                    let region = FrameSpace::Region(PageSize::Size1G);
                    (region, raw >> shift, REGION_1G_BITS, self.next_1g, shift)
                }
            }
        };
        let mask = (1u64 << bits) - 1;
        let number = (scattered & mask).wrapping_mul(FRAME_MULT_INV) & mask;
        if number == 0 || number >= issued {
            return None;
        }
        let offset = raw & ((1 << offset_shift) - 1);
        Some(FrameOrdinal { space, index: (number << offset_shift) | offset })
    }
}

impl Default for FrameAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// The path a hardware page walk takes through the radix tree, from the
/// root (level 3, PML4) down to the mapping's terminal level (0 = PTE
/// for 4 KB pages, 1 = PDE for 2 MB, 2 = PDPTE for 1 GB).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkPath {
    /// Physical frame of the node visited at each level, indexed by level
    /// (3 = root). Levels below the terminal level of a huge mapping are
    /// not visited and hold `Pfn(0)`.
    pub node_pfns: [Pfn; 4],
    /// Physical address of the page-table *entry* read at each level — the
    /// loads a hardware walker issues into the cache hierarchy. Levels
    /// below the terminal level hold `PhysAddr(0)` and must not be read.
    pub pte_addrs: [PhysAddr; 4],
    /// The translation result at the 4 KB grain (huge mappings return
    /// `region base + frame offset`, so callers can compose physical
    /// addresses without knowing the size).
    pub pfn: Pfn,
    /// The size of the mapping this walk resolved.
    pub size: PageSize,
    /// Whether this walk demand-allocated the data page (first touch).
    pub newly_mapped: bool,
}

/// One radix node: 512 slots, each 0 (not present), a leaf
/// ([`leaf_slot`]) or a pointer to a child ([`interior_slot`]).
type Node = [u64; NODE_ENTRIES];

/// A reserved 2 MB frame region under [`AllocPolicy::Promote2M`].
#[derive(Clone, Copy, Debug)]
struct ReservedRegion {
    /// Base frame of the physically contiguous 512-frame reservation.
    base: Pfn,
    /// Distinct 4 KB pages of the region touched so far.
    touched: u32,
}

/// The four-level radix page table.
#[derive(Debug)]
pub struct PageTable {
    root: Pfn,
    /// Every node, in creation order; [`ROOT`] first.
    nodes: Vec<Node>,
    /// `Promote2M` reservations, parallel to `nodes`: a leaf (PT) node
    /// maps exactly one 2 MB virtual region, so it carries that region's
    /// reservation from its first mapped page on.
    reservations: Vec<Option<ReservedRegion>>,
    frames: FrameAllocator,
    mapped_pages: u64,
    policy: AllocPolicy,
}

impl PageTable {
    /// Creates an empty 4 KB-grain page table (root node allocated) —
    /// the paper's configuration.
    pub fn new() -> Self {
        Self::with_policy(AllocPolicy::Base4K)
    }

    /// Creates an empty page table mapping pages per `policy`.
    pub fn with_policy(policy: AllocPolicy) -> Self {
        let mut frames =
            if policy.is_default() { FrameAllocator::new() } else { FrameAllocator::partitioned() };
        let root = frames.alloc();
        let mut table = PageTable {
            root,
            nodes: Vec::new(),
            reservations: Vec::new(),
            frames,
            mapped_pages: 0,
            policy,
        };
        table.push_node();
        table
    }

    /// Physical frame of the root (PML4) node.
    pub fn root(&self) -> Pfn {
        self.root
    }

    /// The allocation policy mappings follow.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// The allocator the table's nodes and mapped pages come from.
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// The allocation space of the frames that pages mapped at `size`
    /// occupy: singletons for 4 KB pages, except under `Promote2M`, which
    /// carves its 4 KB pages out of 2 MB regions; the region space of
    /// `size` for huge pages. Page-table nodes are always singletons.
    pub fn frame_space(&self, size: PageSize) -> FrameSpace {
        match (self.policy, size) {
            (AllocPolicy::Promote2M { .. }, _) => FrameSpace::Region(PageSize::Size2M),
            (_, PageSize::Size4K) => FrameSpace::Singleton,
            (_, size) => FrameSpace::Region(size),
        }
    }

    /// Number of mappings created so far, each counted at its own grain
    /// (one 2 MB or 1 GB mapping counts once; under promotion, the 4 KB
    /// first touches keep their counts).
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Number of page-table node pages allocated (the table's own
    /// footprint).
    pub fn table_pages(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// The size at which `vpn` is (or would be) mapped, without mapping
    /// it. Read-only: used to key size-tagged TLB structures before a
    /// walk resolves.
    pub fn probe_size(&self, vpn: Vpn) -> PageSize {
        match self.policy {
            AllocPolicy::Base4K | AllocPolicy::Uniform(PageSize::Size4K) => PageSize::Size4K,
            AllocPolicy::Uniform(size) => size,
            AllocPolicy::Promote2M { .. } => {
                let mut node = ROOT;
                for level in [3u32, 2u32] {
                    let slot = self.slots(node)[vpn.radix_index(level)];
                    if slot == 0 {
                        return PageSize::Size4K;
                    }
                    node = slot_child(slot);
                }
                let pd_index = vpn.radix_index(1);
                if slot_is_huge(self.slots(node)[pd_index]) {
                    PageSize::Size2M
                } else {
                    PageSize::Size4K
                }
            }
        }
    }

    /// Translates `vpn` (4 KB grain), demand-mapping it on first touch,
    /// and reports the full walk path.
    pub fn translate(&mut self, vpn: Vpn) -> WalkPath {
        match self.policy {
            AllocPolicy::Base4K => self.translate_uniform(vpn, PageSize::Size4K),
            AllocPolicy::Uniform(size) => self.translate_uniform(vpn, size),
            AllocPolicy::Promote2M { threshold } => self.translate_promote(vpn, threshold),
        }
    }

    /// One mapping size for every page: the walk terminates at `size`'s
    /// PTE, PDE or PDPTE, which maps a frame (4 KB) or a whole aligned
    /// frame region (2 MB, 1 GB) on first touch. Interior nodes are
    /// allocated top-down before the data frame, the allocator-call order
    /// the goldens pin.
    fn translate_uniform(&mut self, vpn: Vpn, size: PageSize) -> WalkPath {
        let terminal = size.terminal_level();
        let mut node_pfns = [Pfn::new(0); 4];
        let mut pte_addrs = [PhysAddr::new(0); 4];
        let (mut node, mut node_pfn) = (ROOT, self.root);
        invariant!(terminal < 4, "terminal level indexes the 4-level walk arrays");
        for level in (terminal + 1..=3).rev() {
            let index = vpn.radix_index(level as u32);
            node_pfns[level] = node_pfn;
            pte_addrs[level] = pte_addr(node_pfn, index);
            (node, node_pfn) = self.child_or_alloc(node, index);
        }
        let index = vpn.radix_index(terminal as u32);
        node_pfns[terminal] = node_pfn;
        pte_addrs[terminal] = pte_addr(node_pfn, index);
        let slot = self.slots(node)[index];
        let (base, newly_mapped) = if slot == 0 {
            let huge = size != PageSize::Size4K;
            let base = if huge { self.frames.alloc_region(size) } else { self.frames.alloc() };
            self.slots_mut(node)[index] = leaf_slot(base, huge);
            self.mapped_pages += 1;
            (base, true)
        } else {
            (slot_pfn(slot), false)
        };
        let pfn = Pfn::new(base.raw() + size.frame_offset(vpn));
        WalkPath { node_pfns, pte_addrs, pfn, size, newly_mapped }
    }

    /// Reservation-based promotion: 4 KB pages carved out of per-region
    /// 2 MB reservations, with the PDE flipped huge once `threshold`
    /// distinct base pages have been touched.
    fn translate_promote(&mut self, vpn: Vpn, threshold: u32) -> WalkPath {
        let mut node_pfns = [Pfn::new(0); 4];
        let mut pte_addrs = [PhysAddr::new(0); 4];
        let (mut node, mut node_pfn) = (ROOT, self.root);
        for level in (2..=3).rev() {
            let index = vpn.radix_index(level as u32);
            node_pfns[level] = node_pfn;
            pte_addrs[level] = pte_addr(node_pfn, index);
            (node, node_pfn) = self.child_or_alloc(node, index);
        }
        // Level 1 (PD): either a huge leaf or a pointer to the PT.
        let pd = node;
        let pd_index = vpn.radix_index(1);
        node_pfns[1] = node_pfn;
        pte_addrs[1] = pte_addr(node_pfn, pd_index);
        let pd_slot = self.slots(pd)[pd_index];
        if slot_is_huge(pd_slot) {
            let pfn = Pfn::new(slot_pfn(pd_slot).raw() + PageSize::Size2M.frame_offset(vpn));
            return WalkPath {
                node_pfns,
                pte_addrs,
                pfn,
                size: PageSize::Size2M,
                newly_mapped: false,
            };
        }
        let (pt, pt_pfn) = self.child_or_alloc(pd, pd_index);
        // Level 0: 4 KB leaf, frames carved from the region reservation.
        let index = vpn.radix_index(0);
        node_pfns[0] = pt_pfn;
        pte_addrs[0] = pte_addr(pt_pfn, index);
        let slot = self.slots(pt)[index];
        let (pfn, newly_mapped) = if slot == 0 {
            invariant!(pt < self.reservations.len(), "one reservation slot per node");
            let mut resv = match self.reservations[pt] {
                Some(resv) => resv,
                None => {
                    ReservedRegion { base: self.frames.alloc_region(PageSize::Size2M), touched: 0 }
                }
            };
            resv.touched += 1;
            self.reservations[pt] = Some(resv);
            let frame = Pfn::new(resv.base.raw() + PageSize::Size2M.frame_offset(vpn));
            self.slots_mut(pt)[index] = leaf_slot(frame, false);
            if resv.touched >= threshold {
                // Flip the PDE to a huge leaf over the same frames; the
                // abandoned PT node stays allocated (as on real systems
                // until the OS reclaims it), and no walk reaches it again.
                // Visible from the next walk.
                self.slots_mut(pd)[pd_index] = leaf_slot(resv.base, true);
            }
            self.mapped_pages += 1;
            (frame, true)
        } else {
            (slot_pfn(slot), false)
        };
        WalkPath { node_pfns, pte_addrs, pfn, size: PageSize::Size4K, newly_mapped }
    }

    /// Follows (or demand-allocates) the child under `index` of the
    /// interior node `node`, returning the child's arena index and frame.
    fn child_or_alloc(&mut self, node: usize, index: usize) -> (usize, Pfn) {
        invariant!(index < NODE_ENTRIES, "radix indices are 9-bit");
        let slot = self.slots(node)[index];
        if slot != 0 {
            return (slot_child(slot), slot_pfn(slot));
        }
        let pfn = self.frames.alloc();
        let child = self.push_node();
        self.slots_mut(node)[index] = interior_slot(pfn, child);
        (child, pfn)
    }

    /// Appends an empty node to the arena (first touch only) and returns
    /// its index.
    fn push_node(&mut self) -> usize {
        let child = self.nodes.len();
        assert!(child < MAX_NODES, "page-table node arena exhausted");
        self.nodes.push([0; NODE_ENTRIES]);
        self.reservations.push(None);
        child
    }

    /// The slots of arena node `node`.
    #[inline]
    fn slots(&self, node: usize) -> &Node {
        invariant!(node < self.nodes.len(), "slots name only nodes already in the arena");
        &self.nodes[node]
    }

    #[inline]
    fn slots_mut(&mut self, node: usize) -> &mut Node {
        invariant!(node < self.nodes.len(), "slots name only nodes already in the arena");
        &mut self.nodes[node]
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Physical address of slot `index` in the node at `node_pfn` (8-byte
/// entries).
fn pte_addr(node_pfn: Pfn, index: usize) -> PhysAddr {
    PhysAddr::new(node_pfn.base().raw() + (index as u64) * 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_unique() {
        let mut alloc = FrameAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100_000 {
            assert!(seen.insert(alloc.alloc()), "frame allocator repeated a frame");
        }
        assert_eq!(alloc.allocated(), 100_000);
    }

    #[test]
    fn partitioned_regions_are_aligned_and_disjoint() {
        let mut alloc = FrameAllocator::partitioned();
        let mut claimed: Vec<(u64, u64)> = Vec::new(); // [start, end) frame ranges
        for _ in 0..500 {
            let f = alloc.alloc();
            assert_eq!(f.raw() >> 33, 0, "singletons stay below bit 33");
            claimed.push((f.raw(), f.raw() + 1));
        }
        for _ in 0..200 {
            let base = alloc.alloc_region(PageSize::Size2M);
            assert_eq!(base.raw() % 512, 0, "2 MB regions are 512-frame aligned");
            claimed.push((base.raw(), base.raw() + 512));
        }
        for _ in 0..50 {
            let base = alloc.alloc_region(PageSize::Size1G);
            assert_eq!(base.raw() % (512 * 512), 0, "1 GB regions are 2^18-frame aligned");
            claimed.push((base.raw(), base.raw() + 512 * 512));
        }
        claimed.sort_unstable();
        for pair in claimed.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "frame ranges overlap: {pair:?}");
        }
    }

    #[test]
    #[should_panic(expected = "partitioned")]
    fn legacy_allocator_rejects_regions() {
        FrameAllocator::new().alloc_region(PageSize::Size2M);
    }

    /// `ordinal` inverts every allocation: singletons in legacy and
    /// partitioned mode, and every frame of 2 MB and 1 GB regions (base,
    /// next-to-base and last). Frames not yet handed out have none.
    #[test]
    fn ordinals_round_trip_in_every_space() {
        let mut legacy = FrameAllocator::new();
        for n in 1..=5_000 {
            let frame = legacy.alloc();
            let want = FrameOrdinal { space: FrameSpace::Singleton, index: n };
            assert_eq!(legacy.ordinal(frame), Some(want), "legacy frame {n}");
        }
        let mut partitioned = FrameAllocator::partitioned();
        for n in 1..=300 {
            let frame = partitioned.alloc();
            let want = FrameOrdinal { space: FrameSpace::Singleton, index: n };
            assert_eq!(partitioned.ordinal(frame), Some(want), "singleton {n}");
            for size in [PageSize::Size2M, PageSize::Size1G] {
                let base = partitioned.alloc_region(size);
                let shift = size.unit_shift();
                for offset in [0, 1, size.frames() - 1] {
                    let want = FrameOrdinal {
                        space: FrameSpace::Region(size),
                        index: (n << shift) | offset,
                    };
                    let frame = Pfn::new(base.raw() + offset);
                    assert_eq!(partitioned.ordinal(frame), Some(want), "{size:?} region {n}");
                }
            }
        }
        // The next frame or region each allocator would hand out has no
        // ordinal yet, and neither has a frame outside the frame space.
        for mut alloc in [legacy, partitioned] {
            let probe = alloc.clone();
            assert_eq!(probe.ordinal(alloc.alloc()), None);
            assert_eq!(probe.ordinal(Pfn::new(1 << FRAME_SPACE_BITS)), None);
            assert_eq!(probe.ordinal(Pfn::new(0)), None, "frame 0 is never returned");
        }
        let mut regions = FrameAllocator::partitioned();
        let probe = regions.clone();
        for size in [PageSize::Size2M, PageSize::Size1G] {
            let base = regions.alloc_region(size);
            assert_eq!(probe.ordinal(Pfn::new(base.raw() + 3)), None, "{size:?}");
        }
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(0x12_3456);
        let first = pt.translate(vpn);
        assert!(first.newly_mapped);
        assert_eq!(first.size, PageSize::Size4K);
        let second = pt.translate(vpn);
        assert!(!second.newly_mapped);
        assert_eq!(first.pfn, second.pfn);
        assert_eq!(first.pte_addrs, second.pte_addrs);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new();
        let a = pt.translate(Vpn::new(100)).pfn;
        let b = pt.translate(Vpn::new(101)).pfn;
        assert_ne!(a, b);
    }

    #[test]
    fn sibling_pages_share_interior_nodes() {
        let mut pt = PageTable::new();
        // Same 512-page region → same leaf PT node, different slots.
        let a = pt.translate(Vpn::new(0x1000));
        let b = pt.translate(Vpn::new(0x1001));
        assert_eq!(a.node_pfns[0], b.node_pfns[0]);
        assert_ne!(a.pte_addrs[0], b.pte_addrs[0]);
        // Distant regions → different leaf PT nodes, same root.
        let c = pt.translate(Vpn::new(0x8000_0000));
        assert_ne!(a.node_pfns[0], c.node_pfns[0]);
        assert_eq!(a.node_pfns[3], c.node_pfns[3]);
    }

    #[test]
    fn pte_addresses_live_in_their_nodes() {
        let mut pt = PageTable::new();
        let walk = pt.translate(Vpn::new(0xABCDE));
        for level in 0..4 {
            assert_eq!(
                walk.pte_addrs[level].pfn(),
                walk.node_pfns[level],
                "PTE at level {level} must lie in that level's node frame"
            );
        }
    }

    #[test]
    fn table_pages_grow_with_spread_mappings() {
        let mut pt = PageTable::new();
        let before = pt.table_pages();
        // Map pages 512 GiB apart: each needs its own PDPT/PD/PT chain.
        for i in 0..4u64 {
            pt.translate(Vpn::new(i << 27));
        }
        assert!(pt.table_pages() >= before + 9, "interior nodes must be allocated");
    }

    #[test]
    fn root_is_constant() {
        let mut pt = PageTable::new();
        let root = pt.root();
        pt.translate(Vpn::new(42));
        assert_eq!(pt.root(), root);
        assert_eq!(pt.translate(Vpn::new(42)).node_pfns[3], root);
    }

    #[test]
    fn uniform_2m_walks_terminate_at_the_pde() {
        let mut pt = PageTable::with_policy(AllocPolicy::Uniform(PageSize::Size2M));
        let vpn = Vpn::new(0x12_3456);
        let walk = pt.translate(vpn);
        assert_eq!(walk.size, PageSize::Size2M);
        assert!(walk.newly_mapped);
        assert_eq!(walk.node_pfns[0], Pfn::new(0), "no PT node below a PDE mapping");
        for level in 1..4 {
            assert_eq!(walk.pte_addrs[level].pfn(), walk.node_pfns[level]);
        }
        // The whole 2 MB region shares one mapping over contiguous frames.
        let sibling = pt.translate(Vpn::new(vpn.raw() ^ 0x1ff));
        assert!(!sibling.newly_mapped);
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(
            walk.pfn.raw().wrapping_sub(PageSize::Size2M.frame_offset(vpn)),
            sibling.pfn.raw() - PageSize::Size2M.frame_offset(Vpn::new(vpn.raw() ^ 0x1ff)),
            "both pages translate into the same region"
        );
        assert_eq!(pt.probe_size(vpn), PageSize::Size2M);
    }

    #[test]
    fn uniform_1g_walks_terminate_at_the_pdpte() {
        let mut pt = PageTable::with_policy(AllocPolicy::Uniform(PageSize::Size1G));
        let vpn = Vpn::new(0x12_3456);
        let walk = pt.translate(vpn);
        assert_eq!(walk.size, PageSize::Size1G);
        assert_eq!(walk.node_pfns[0], Pfn::new(0));
        assert_eq!(walk.node_pfns[1], Pfn::new(0));
        assert_eq!(walk.pfn.raw() % (512 * 512), PageSize::Size1G.frame_offset(vpn));
        // 1 GB apart → distinct regions; within → shared.
        assert!(pt.translate(Vpn::new(vpn.raw() + (1 << 18))).newly_mapped);
        assert!(!pt.translate(Vpn::new(vpn.raw() + 1)).newly_mapped);
        assert_eq!(pt.mapped_pages(), 2);
    }

    #[test]
    fn huge_translations_are_stable_and_offset_correct() {
        for policy in
            [AllocPolicy::Uniform(PageSize::Size2M), AllocPolicy::Uniform(PageSize::Size1G)]
        {
            let mut pt = PageTable::with_policy(policy);
            let vpn = Vpn::new(0xABCDE);
            let a = pt.translate(vpn);
            let b = pt.translate(vpn);
            assert_eq!(a.pfn, b.pfn);
            assert_eq!(a.pte_addrs, b.pte_addrs);
            let size = a.size;
            assert_eq!(
                size.frame_offset(Vpn::new(a.pfn.raw())),
                size.frame_offset(vpn),
                "VA and PA agree on the in-region offset"
            );
        }
    }

    #[test]
    fn promotion_flips_the_pde_after_threshold_touches() {
        let threshold = 4;
        let mut pt = PageTable::with_policy(AllocPolicy::Promote2M { threshold });
        let base = Vpn::new(0x4_0000); // 2 MB-region aligned
                                       // Below threshold: 4 KB walks.
        let mut frames = Vec::new();
        for i in 0..threshold as u64 {
            let walk = pt.translate(Vpn::new(base.raw() + i));
            assert_eq!(walk.size, PageSize::Size4K);
            assert!(walk.newly_mapped);
            frames.push(walk.pfn);
            let expected =
                if i + 1 < u64::from(threshold) { PageSize::Size4K } else { PageSize::Size2M };
            assert_eq!(pt.probe_size(Vpn::new(base.raw() + i)), expected, "touch {i}");
        }
        // Promotion preserved the carved frames: the huge walk returns
        // exactly the frame each 4 KB walk returned.
        for (i, &frame) in frames.iter().enumerate() {
            let walk = pt.translate(Vpn::new(base.raw() + i as u64));
            assert_eq!(walk.size, PageSize::Size2M);
            assert!(!walk.newly_mapped);
            assert_eq!(walk.pfn, frame, "promotion must not move frames");
        }
        // Untouched pages of the promoted region translate too.
        let fresh = pt.translate(Vpn::new(base.raw() + 100));
        assert_eq!(fresh.size, PageSize::Size2M);
        assert_eq!(
            fresh.pfn.raw() - PageSize::Size2M.frame_offset(Vpn::new(fresh.pfn.raw())),
            frames[0].raw() - PageSize::Size2M.frame_offset(Vpn::new(frames[0].raw())),
        );
    }

    #[test]
    fn unpromoted_regions_stay_4k() {
        let mut pt = PageTable::with_policy(AllocPolicy::Promote2M { threshold: 512 });
        for i in 0..100u64 {
            assert_eq!(pt.translate(Vpn::new(0x4_0000 + i)).size, PageSize::Size4K);
        }
        assert_eq!(pt.probe_size(Vpn::new(0x4_0000)), PageSize::Size4K);
        assert_eq!(pt.probe_size(Vpn::new(0xFFFF_0000)), PageSize::Size4K, "unmapped VPN");
    }

    #[test]
    fn reservation_frames_are_carved_contiguously() {
        let mut pt = PageTable::with_policy(AllocPolicy::Promote2M { threshold: 512 });
        let a = pt.translate(Vpn::new(0x4_0000)).pfn;
        let b = pt.translate(Vpn::new(0x4_0001)).pfn;
        let far = pt.translate(Vpn::new(0x4_0000 + 0x1ff)).pfn;
        assert_eq!(b.raw(), a.raw() + 1, "adjacent pages share the reservation");
        assert_eq!(far.raw(), a.raw() + 0x1ff);
    }
}
