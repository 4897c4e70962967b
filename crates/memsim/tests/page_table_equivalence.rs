//! The arena page table against a reference copy of the hash-map table it
//! replaced.
//!
//! [`MapPageTable`] keeps nodes in a `HashMap` keyed by simulated frame
//! and `Promote2M` reservations in a map keyed by the 2 MB virtual
//! region, exactly as `PageTable` did before its nodes moved into an
//! arena. Both tables are driven with the same VPN sequences under every
//! page policy; every walk path, `probe_size`, `mapped_pages` and
//! `table_pages` must agree. The reference allocates from the public
//! `FrameAllocator`, so the two share the allocator-call order by
//! construction only if the walks make the same calls in the same order.

use dpc_memsim::page_table::{FrameAllocator, PageTable, WalkPath, NODE_ENTRIES};
use dpc_types::{AllocPolicy, PageSize, Pfn, PhysAddr, Vpn};
use proptest::prelude::*;
use std::collections::HashMap;

const SLOT_PRESENT: u64 = 1;
const SLOT_HUGE: u64 = 2;

fn encode_slot(pfn: Pfn, huge: bool) -> u64 {
    (pfn.raw() << 2) | SLOT_PRESENT | if huge { SLOT_HUGE } else { 0 }
}

fn slot_pfn(slot: u64) -> Pfn {
    Pfn::new(slot >> 2)
}

fn slot_is_huge(slot: u64) -> bool {
    slot & SLOT_HUGE != 0
}

fn pte_addr(node_pfn: Pfn, index: usize) -> PhysAddr {
    PhysAddr::new(node_pfn.base().raw() + (index as u64) * 8)
}

#[derive(Clone, Copy)]
struct ReservedRegion {
    base: Pfn,
    touched: u32,
    promoted: bool,
}

/// The map-based page table, transliterated from its last version.
struct MapPageTable {
    root: Pfn,
    nodes: HashMap<Pfn, Box<[u64; NODE_ENTRIES]>>,
    frames: FrameAllocator,
    mapped_pages: u64,
    policy: AllocPolicy,
    reservations: HashMap<u64, ReservedRegion>,
}

impl MapPageTable {
    fn with_policy(policy: AllocPolicy) -> Self {
        let mut frames =
            if policy.is_default() { FrameAllocator::new() } else { FrameAllocator::partitioned() };
        let root = frames.alloc();
        let mut nodes = HashMap::new();
        nodes.insert(root, Box::new([0; NODE_ENTRIES]));
        MapPageTable { root, nodes, frames, mapped_pages: 0, policy, reservations: HashMap::new() }
    }

    fn table_pages(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn probe_size(&self, vpn: Vpn) -> PageSize {
        match self.policy {
            AllocPolicy::Base4K | AllocPolicy::Uniform(PageSize::Size4K) => PageSize::Size4K,
            AllocPolicy::Uniform(size) => size,
            AllocPolicy::Promote2M { .. } => {
                let mut node_pfn = self.root;
                for level in [3u32, 2u32] {
                    let Some(node) = self.nodes.get(&node_pfn) else {
                        return PageSize::Size4K;
                    };
                    let slot = node[vpn.radix_index(level)];
                    if slot == 0 {
                        return PageSize::Size4K;
                    }
                    node_pfn = slot_pfn(slot);
                }
                match self.nodes.get(&node_pfn) {
                    Some(node) if slot_is_huge(node[vpn.radix_index(1)]) => PageSize::Size2M,
                    _ => PageSize::Size4K,
                }
            }
        }
    }

    fn translate(&mut self, vpn: Vpn) -> WalkPath {
        match self.policy {
            AllocPolicy::Base4K | AllocPolicy::Uniform(PageSize::Size4K) => {
                self.translate_base(vpn)
            }
            AllocPolicy::Uniform(size) => self.translate_uniform(vpn, size),
            AllocPolicy::Promote2M { threshold } => self.translate_promote(vpn, threshold),
        }
    }

    fn translate_base(&mut self, vpn: Vpn) -> WalkPath {
        let mut node_pfns = [Pfn::new(0); 4];
        let mut pte_addrs = [PhysAddr::new(0); 4];
        let mut node_pfn = self.root;
        for level in (1..=3).rev() {
            let index = vpn.radix_index(level as u32);
            node_pfns[level] = node_pfn;
            pte_addrs[level] = pte_addr(node_pfn, index);
            node_pfn = self.child_or_alloc(node_pfn, index);
        }
        let index = vpn.radix_index(0);
        node_pfns[0] = node_pfn;
        pte_addrs[0] = pte_addr(node_pfn, index);
        let slot = self.nodes[&node_pfn][index];
        let (pfn, newly_mapped) = if slot == 0 {
            let frame = self.frames.alloc();
            self.nodes.get_mut(&node_pfn).unwrap()[index] = encode_slot(frame, false);
            self.mapped_pages += 1;
            (frame, true)
        } else {
            (slot_pfn(slot), false)
        };
        WalkPath { node_pfns, pte_addrs, pfn, size: PageSize::Size4K, newly_mapped }
    }

    fn translate_uniform(&mut self, vpn: Vpn, size: PageSize) -> WalkPath {
        let terminal = size.terminal_level();
        let mut node_pfns = [Pfn::new(0); 4];
        let mut pte_addrs = [PhysAddr::new(0); 4];
        let mut node_pfn = self.root;
        for level in (terminal + 1..=3).rev() {
            let index = vpn.radix_index(level as u32);
            node_pfns[level] = node_pfn;
            pte_addrs[level] = pte_addr(node_pfn, index);
            node_pfn = self.child_or_alloc(node_pfn, index);
        }
        let index = vpn.radix_index(terminal as u32);
        node_pfns[terminal] = node_pfn;
        pte_addrs[terminal] = pte_addr(node_pfn, index);
        let slot = self.nodes[&node_pfn][index];
        let (base, newly_mapped) = if slot == 0 {
            let base = self.frames.alloc_region(size);
            self.nodes.get_mut(&node_pfn).unwrap()[index] = encode_slot(base, true);
            self.mapped_pages += 1;
            (base, true)
        } else {
            (slot_pfn(slot), false)
        };
        let pfn = Pfn::new(base.raw() + size.frame_offset(vpn));
        WalkPath { node_pfns, pte_addrs, pfn, size, newly_mapped }
    }

    fn translate_promote(&mut self, vpn: Vpn, threshold: u32) -> WalkPath {
        let mut node_pfns = [Pfn::new(0); 4];
        let mut pte_addrs = [PhysAddr::new(0); 4];
        let mut node_pfn = self.root;
        for level in (2..=3).rev() {
            let index = vpn.radix_index(level as u32);
            node_pfns[level] = node_pfn;
            pte_addrs[level] = pte_addr(node_pfn, index);
            node_pfn = self.child_or_alloc(node_pfn, index);
        }
        let pd_pfn = node_pfn;
        let pd_index = vpn.radix_index(1);
        node_pfns[1] = pd_pfn;
        pte_addrs[1] = pte_addr(pd_pfn, pd_index);
        let pd_slot = self.nodes[&pd_pfn][pd_index];
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
        let pt_pfn =
            if pd_slot == 0 { self.child_or_alloc(pd_pfn, pd_index) } else { slot_pfn(pd_slot) };
        let index = vpn.radix_index(0);
        node_pfns[0] = pt_pfn;
        pte_addrs[0] = pte_addr(pt_pfn, index);
        let slot = self.nodes[&pt_pfn][index];
        let (pfn, newly_mapped) = if slot == 0 {
            let region = vpn.raw() >> PageSize::Size2M.unit_shift();
            let (frames, reservations) = (&mut self.frames, &mut self.reservations);
            let resv = reservations.entry(region).or_insert_with(|| ReservedRegion {
                base: frames.alloc_region(PageSize::Size2M),
                touched: 0,
                promoted: false,
            });
            let frame = Pfn::new(resv.base.raw() + PageSize::Size2M.frame_offset(vpn));
            resv.touched += 1;
            let promote = resv.touched >= threshold && !resv.promoted;
            if promote {
                resv.promoted = true;
            }
            let base = resv.base;
            self.nodes.get_mut(&pt_pfn).unwrap()[index] = encode_slot(frame, false);
            if promote {
                self.nodes.get_mut(&pd_pfn).unwrap()[pd_index] = encode_slot(base, true);
            }
            self.mapped_pages += 1;
            (frame, true)
        } else {
            (slot_pfn(slot), false)
        };
        WalkPath { node_pfns, pte_addrs, pfn, size: PageSize::Size4K, newly_mapped }
    }

    fn child_or_alloc(&mut self, node_pfn: Pfn, index: usize) -> Pfn {
        let slot = self.nodes[&node_pfn][index];
        if slot == 0 {
            let child = self.frames.alloc();
            self.nodes.get_mut(&node_pfn).unwrap()[index] = encode_slot(child, false);
            self.nodes.insert(child, Box::new([0; NODE_ENTRIES]));
            child
        } else {
            slot_pfn(slot)
        }
    }
}

/// Every page policy, with the promotion thresholds that promote on the
/// first touch, part-way through a region, and only once it is full.
const POLICIES: [AllocPolicy; 7] = [
    AllocPolicy::Base4K,
    AllocPolicy::Uniform(PageSize::Size4K),
    AllocPolicy::Uniform(PageSize::Size2M),
    AllocPolicy::Uniform(PageSize::Size1G),
    AllocPolicy::Promote2M { threshold: 1 },
    AllocPolicy::Promote2M { threshold: 64 },
    AllocPolicy::Promote2M { threshold: 512 },
];

/// A VPN sequence from `seed`. `clustered` keeps pages in the first 128
/// pages of eight 2 MB regions spread over 1.5 GiB (two PD nodes), so
/// nodes and reservations are shared, pages revisited, and a
/// 64-page threshold is crossed within a few hundred steps. Otherwise
/// pages scatter over the whole 48-bit address space (36-bit VPNs), with
/// every fourth page a revisit of an earlier one.
fn vpns(seed: u64, len: usize, clustered: bool) -> Vec<Vpn> {
    let mut state = seed | 1;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 16
    };
    let mut out: Vec<Vpn> = Vec::with_capacity(len);
    for i in 0..len {
        let r = next();
        let vpn = if clustered {
            0x4_0000 + ((r % 8 * 97) << 9) + (r >> 20) % 128
        } else if i % 4 == 3 {
            out[(r as usize) % out.len()].raw()
        } else {
            r & ((1 << 36) - 1)
        };
        out.push(Vpn::new(vpn));
    }
    out
}

/// Drives both tables through `sequence`, comparing after every step;
/// returns the arena table.
fn assert_equivalent(policy: AllocPolicy, sequence: &[Vpn]) -> PageTable {
    let mut arena = PageTable::with_policy(policy);
    let mut reference = MapPageTable::with_policy(policy);
    assert_eq!(arena.root(), reference.root);
    for (step, &vpn) in sequence.iter().enumerate() {
        let at = format!("{policy:?} step {step}, vpn {:#x}", vpn.raw());
        assert_eq!(arena.probe_size(vpn), reference.probe_size(vpn), "{at}: probe before the walk");
        assert_eq!(arena.translate(vpn), reference.translate(vpn), "{at}: walk path");
        assert_eq!(arena.probe_size(vpn), reference.probe_size(vpn), "{at}: probe after the walk");
        assert_eq!(arena.mapped_pages(), reference.mapped_pages, "{at}: mapped pages");
        assert_eq!(arena.table_pages(), reference.table_pages(), "{at}: table pages");
    }
    arena
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_walks_match_the_map_table(seed in any::<u64>(), len in 1usize..400) {
        for policy in POLICIES {
            for clustered in [true, false] {
                assert_equivalent(policy, &vpns(seed, len, clustered));
            }
        }
    }
}

/// A long clustered run per policy, so promotion at every threshold (512
/// needs a full region) and deep node sharing are reached, not just
/// likely.
#[test]
fn long_clustered_runs_match_the_map_table() {
    for policy in POLICIES {
        let sequence: Vec<Vpn> = vpns(7, 20_000, true)
            .into_iter()
            .chain((0..512).map(|i| Vpn::new(0x8_0000 + i)))
            .collect();
        let arena = assert_equivalent(policy, &sequence);
        if let AllocPolicy::Promote2M { .. } = policy {
            assert_eq!(arena.probe_size(Vpn::new(0x8_0000)), PageSize::Size2M, "{policy:?}");
        }
    }
}
