//! The frame→page reverse maps behind the block↔page correlation of the
//! paper's Table III: which page an evicted LLC block belongs to, and
//! whether that page's most recent LLT stay was dead on arrival.
//!
//! There is one table per page size the policy maps. A table is one
//! `u64` per frame of the allocation space that size's pages occupy
//! ([`PageTable::frame_space`]), indexed by the frame's allocation
//! ordinal ([`FrameAllocator::ordinal`]). Ordinals are dense in
//! allocation order, so a table grows by appending, on first touch only,
//! and a lookup is an index computation and one load. An entry holds:
//!
//! | bits | meaning |
//! |---|---|
//! | 0–1 | the page's most recent LLT stay: unknown (0), live (1), DOA (2) |
//! | 2 | a walk mapped a page to this frame |
//! | 3–63 | that page's LLT key |
//!
//! The methods are deliberately not `#[inline]`: `System` is
//! monomorphised per policy pair, and one out-of-line copy serves them
//! all.

use crate::page_table::{FrameAllocator, FrameSpace, PageTable};
use dpc_types::{PageSize, Pfn, Vpn};

const STAY_MASK: u64 = 3;
const STAY_LIVE: u64 = 1;
const STAY_DOA: u64 = 2;
const MAPPED: u64 = 4;
const KEY_SHIFT: u32 = 3;

/// One page size's table.
#[derive(Debug)]
struct ReverseTable {
    size: PageSize,
    space: FrameSpace,
    entries: Vec<u64>,
}

impl ReverseTable {
    /// The entry index of the `size`-grain unit frame `unit_pfn`, or
    /// `None` for a frame outside this size's space (a page-table node, a
    /// frame of another size, a frame never allocated).
    fn index(&self, frames: &FrameAllocator, unit_pfn: Pfn) -> Option<usize> {
        let shift = self.size.unit_shift();
        let ordinal = frames.ordinal(Pfn::new(unit_pfn.raw() << shift))?;
        (ordinal.space == self.space).then_some((ordinal.index >> shift) as usize)
    }
}

/// The reverse maps of every page size a policy maps, smallest first.
#[derive(Debug)]
pub(crate) struct ReverseMaps {
    tables: Vec<ReverseTable>,
}

impl ReverseMaps {
    /// Empty maps for the page sizes `page_table`'s policy maps.
    pub(crate) fn new(page_table: &PageTable) -> Self {
        let tables = page_table
            .policy()
            .page_sizes()
            .iter()
            .map(|&size| ReverseTable {
                size,
                space: page_table.frame_space(size),
                entries: Vec::new(),
            })
            .collect();
        ReverseMaps { tables }
    }

    /// The entry of the page with LLT key `key`, mapped at the unit frame
    /// `unit_pfn` of the key's size, appended to its table if the table
    /// is shorter. Keys carry a size tag in their low two bits exactly
    /// when several sizes coexist; otherwise there is one table.
    fn entry_mut(&mut self, frames: &FrameAllocator, key: Vpn, unit_pfn: Pfn) -> Option<&mut u64> {
        let tagged = self.tables.len() > 1;
        let tag = key.raw() & 3;
        let table = self.tables.iter_mut().find(|t| !tagged || t.size.index() == tag)?;
        let index = table.index(frames, unit_pfn)?;
        if index >= table.entries.len() {
            table.entries.resize(index + 1, 0);
        }
        table.entries.get_mut(index)
    }

    /// Records that a walk mapped the page `key` at `unit_pfn`.
    pub(crate) fn note_walk(&mut self, frames: &FrameAllocator, key: Vpn, unit_pfn: Pfn) {
        if let Some(entry) = self.entry_mut(frames, key, unit_pfn) {
            *entry = (key.raw() << KEY_SHIFT) | MAPPED | (*entry & STAY_MASK);
        }
    }

    /// Records how the LLT stay of the page `key` at `unit_pfn` ended.
    pub(crate) fn note_stay(
        &mut self,
        frames: &FrameAllocator,
        key: Vpn,
        unit_pfn: Pfn,
        doa: bool,
    ) {
        if let Some(entry) = self.entry_mut(frames, key, unit_pfn) {
            *entry = (*entry & !STAY_MASK) | if doa { STAY_DOA } else { STAY_LIVE };
        }
    }

    /// The LLT key of the page a walk mapped over the 4 KB frame `pfn`,
    /// trying the sizes smallest first, and whether that page's most
    /// recent LLT stay was DOA (`None` if no stay has ended yet).
    pub(crate) fn page_of(&self, frames: &FrameAllocator, pfn: Pfn) -> Option<(Vpn, Option<bool>)> {
        self.tables.iter().find_map(|table| {
            let entry = *table.entries.get(table.index(frames, table.size.pfn_unit(pfn))?)?;
            let stay = match entry & STAY_MASK {
                STAY_DOA => Some(true),
                STAY_LIVE => Some(false),
                _ => None,
            };
            (entry & MAPPED != 0).then_some((Vpn::new(entry >> KEY_SHIFT), stay))
        })
    }
}
