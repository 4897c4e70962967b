//! Strongly-typed addresses.
//!
//! The simulator deals with four distinct 64-bit quantities that are all too
//! easy to confuse: virtual addresses, physical addresses, page numbers in
//! each space, and program counters. Each gets a newtype so the compiler
//! keeps them apart ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use crate::{PageSize, BLOCK_SHIFT, PAGE_SHIFT, VA_BITS};
use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(value: $name) -> u64 {
                value.0
            }
        }
    };
}

addr_newtype! {
    /// A virtual (program-visible) byte address.
    VirtAddr
}
addr_newtype! {
    /// A physical byte address, produced by address translation.
    PhysAddr
}
addr_newtype! {
    /// A virtual page number: a [`VirtAddr`] shifted right by [`PAGE_SHIFT`].
    ///
    /// [`PAGE_SHIFT`]: crate::PAGE_SHIFT
    Vpn
}
addr_newtype! {
    /// A physical frame number: a [`PhysAddr`] shifted right by
    /// [`PAGE_SHIFT`] — the global page-size constant.
    ///
    /// [`PAGE_SHIFT`]: crate::PAGE_SHIFT
    Pfn
}
addr_newtype! {
    /// A program counter: the address of the instruction performing an
    /// access. In this trace-driven simulator PCs identify static access
    /// *sites* in a workload generator, which is exactly the property the
    /// paper's PC-indexed predictors rely on.
    Pc
}
addr_newtype! {
    /// A physical cache-block address: a [`PhysAddr`] shifted right by
    /// [`BLOCK_SHIFT`].
    ///
    /// [`BLOCK_SHIFT`]: crate::BLOCK_SHIFT
    BlockAddr
}

impl VirtAddr {
    /// Whether the address lies below 2^[`VA_BITS`], the space the
    /// four-level page table translates. [`Vpn::radix_index`] reads only
    /// VPN bits 0–35, so a higher address would alias the page 2^48 below
    /// it; trace readers and writers refuse one.
    #[inline]
    pub const fn is_canonical(self) -> bool {
        self.0 >> VA_BITS == 0
    }

    /// Extracts the virtual page number.
    ///
    /// ```
    /// use dpc_types::VirtAddr;
    /// assert_eq!(VirtAddr::new(0x12345).vpn().raw(), 0x12);
    /// ```
    #[inline]
    pub const fn vpn(self) -> Vpn {
        Vpn::new(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & ((1 << PAGE_SHIFT) - 1)
    }

    /// Byte offset of the address within its cache block.
    #[inline]
    pub const fn block_offset(self) -> u64 {
        self.0 & ((1 << BLOCK_SHIFT) - 1)
    }

    /// Page number of this address at the given page size (unit grain:
    /// the address shifted by `size.shift()`). `vpn_at(Size4K)` equals
    /// [`VirtAddr::vpn`].
    #[inline]
    pub const fn vpn_at(self, size: PageSize) -> Vpn {
        Vpn::new(self.0 >> size.shift())
    }

    /// Byte offset within the enclosing page of the given size.
    #[inline]
    pub const fn page_offset_at(self, size: PageSize) -> u64 {
        self.0 & (size.bytes() - 1)
    }
}

impl Pc {
    /// Whether the PC lies below 2^[`VA_BITS`], like every
    /// [`VirtAddr::is_canonical`] address.
    #[inline]
    pub const fn is_canonical(self) -> bool {
        self.0 >> VA_BITS == 0
    }
}

impl PhysAddr {
    /// Extracts the physical frame number.
    #[inline]
    pub const fn pfn(self) -> Pfn {
        Pfn::new(self.0 >> PAGE_SHIFT)
    }

    /// Extracts the physical cache-block address.
    ///
    /// ```
    /// use dpc_types::PhysAddr;
    /// assert_eq!(PhysAddr::new(0x1040).block().raw(), 0x41);
    /// ```
    #[inline]
    pub const fn block(self) -> BlockAddr {
        BlockAddr::new(self.0 >> BLOCK_SHIFT)
    }

    /// Byte offset within the page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & ((1 << PAGE_SHIFT) - 1)
    }

    /// Frame number of this address at the given page size (unit grain).
    #[inline]
    pub const fn pfn_at(self, size: PageSize) -> Pfn {
        Pfn::new(self.0 >> size.shift())
    }
}

impl Vpn {
    /// The first byte address of this virtual page.
    #[inline]
    pub const fn base(self) -> VirtAddr {
        VirtAddr::new(self.0 << PAGE_SHIFT)
    }

    /// Index into page-table level `level` (0 = leaf / PT, 3 = root / PML4)
    /// for a four-level x86-64 style radix tree with 9 bits per level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= 4`.
    #[inline]
    pub fn radix_index(self, level: u32) -> usize {
        assert!(level < 4, "four-level radix tree has levels 0..=3");
        ((self.0 >> (9 * level)) & 0x1ff) as usize
    }

    /// The first byte address of this page number interpreted at the
    /// given page size (unit grain). `base_at(Size4K)` equals
    /// [`Vpn::base`].
    #[inline]
    pub const fn base_at(self, size: PageSize) -> VirtAddr {
        VirtAddr::new(self.0 << size.shift())
    }

    /// Radix-tree index at `level` for a *unit-grain* page number of the
    /// given size: a size-`s` unit VPN carries radix indices only for
    /// levels `s.terminal_level()..=3` (the walk terminates at the
    /// terminal level). For 4 KB units this equals
    /// [`Vpn::radix_index`].
    ///
    /// # Panics
    ///
    /// Panics if `level >= 4` or `level < size.terminal_level()` — there
    /// is no radix index below a huge mapping's terminal level.
    #[inline]
    pub fn pte_index(self, level: u32, size: PageSize) -> usize {
        assert!(level < 4, "four-level radix tree has levels 0..=3");
        let terminal = size.terminal_level() as u32;
        assert!(
            level >= terminal,
            "a {size} mapping terminates at level {terminal}; level {level} does not exist"
        );
        ((self.0 >> (9 * (level - terminal))) & 0x1ff) as usize
    }
}

impl Pfn {
    /// The first byte address of this physical frame.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 << PAGE_SHIFT)
    }

    /// The first byte address of this frame number interpreted at the
    /// given page size (unit grain).
    #[inline]
    pub const fn base_at(self, size: PageSize) -> PhysAddr {
        PhysAddr::new(self.0 << size.shift())
    }
}

impl BlockAddr {
    /// The first byte address of this cache block.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 << BLOCK_SHIFT)
    }

    /// The physical frame this block belongs to.
    ///
    /// ```
    /// use dpc_types::PhysAddr;
    /// let block = PhysAddr::new(0x2fc0).block();
    /// assert_eq!(block.pfn(), PhysAddr::new(0x2fc0).pfn());
    /// ```
    #[inline]
    pub const fn pfn(self) -> Pfn {
        Pfn::new(self.0 >> (PAGE_SHIFT - BLOCK_SHIFT))
    }

    /// The unit-grain frame of the given page size this block belongs to.
    /// `pfn_at(Size4K)` equals [`BlockAddr::pfn`].
    #[inline]
    pub const fn pfn_at(self, size: PageSize) -> Pfn {
        Pfn::new(self.0 >> (size.shift() - BLOCK_SHIFT))
    }
}

/// Whether an access reads or writes memory.
///
/// The simulated hierarchy is write-allocate/write-back, so loads and stores
/// take the same path; the distinction is kept for statistics and future
/// extensions (e.g. dirty-block modeling).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BLOCKS_PER_PAGE, PAGE_SIZE};

    #[test]
    fn vpn_roundtrip() {
        let va = VirtAddr::new(0xdead_beef_cafe);
        assert_eq!(va.vpn().base().raw() + va.page_offset(), va.raw());
    }

    #[test]
    fn block_roundtrip() {
        let pa = PhysAddr::new(0x1234_5678);
        assert_eq!(pa.block().base().raw() + (pa.raw() & 0x3f), pa.raw());
    }

    #[test]
    fn block_to_pfn_consistent() {
        for raw in [0u64, 63, 64, 4095, 4096, 0xffff_ffff] {
            let pa = PhysAddr::new(raw);
            assert_eq!(pa.block().pfn(), pa.pfn());
        }
    }

    #[test]
    fn canonical_means_below_2_pow_48() {
        let top = (1u64 << VA_BITS) - 1;
        assert!(VirtAddr::new(0).is_canonical() && VirtAddr::new(top).is_canonical());
        assert!(!VirtAddr::new(top + 1).is_canonical() && !VirtAddr::new(u64::MAX).is_canonical());
        assert!(Pc::new(top).is_canonical() && !Pc::new(top + 1).is_canonical());
    }

    #[test]
    fn radix_indices_cover_vpn() {
        // Reassembling the four 9-bit indices must reproduce the low 36 bits
        // of the VPN (48-bit VA = 36-bit VPN).
        let vpn = Vpn::new(0x0eba_9876_5432 & ((1 << 36) - 1));
        let mut rebuilt = 0u64;
        for level in (0..4).rev() {
            rebuilt = (rebuilt << 9) | vpn.radix_index(level) as u64;
        }
        assert_eq!(rebuilt, vpn.raw());
    }

    #[test]
    #[should_panic(expected = "four-level")]
    fn radix_index_rejects_level_4() {
        Vpn::new(0).radix_index(4);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(VirtAddr::new(0xff).to_string(), "0xff");
        assert_eq!(format!("{:x}", Pfn::new(0xab)), "ab");
        assert_eq!(format!("{:b}", Pc::new(0b101)), "101");
    }

    #[test]
    fn debug_is_nonempty_and_named() {
        let s = format!("{:?}", BlockAddr::new(0));
        assert!(s.starts_with("BlockAddr("));
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(PAGE_SIZE / crate::BLOCK_SIZE, BLOCKS_PER_PAGE);
        assert_eq!(BLOCKS_PER_PAGE, 64);
    }

    #[test]
    fn conversions() {
        let v: VirtAddr = 7u64.into();
        let raw: u64 = v.into();
        assert_eq!(raw, 7);
    }

    #[test]
    fn access_kind() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert_eq!(AccessKind::Read.to_string(), "read");
    }

    /// Addresses that exercise every alignment class: page-aligned at each
    /// size, block-aligned, and arbitrary interior bytes up to 48 bits.
    const SAMPLE_ADDRS: [u64; 8] =
        [0, 0x3f, 0x1000, 0x1f_ffff, 0x20_0000, 0x4000_0000, 0xdead_beef_cafe, (1 << 48) - 1];

    #[test]
    fn sized_vpn_offset_roundtrip() {
        // vpn_at / page_offset_at / base_at are inverses at every size.
        for raw in SAMPLE_ADDRS {
            let va = VirtAddr::new(raw);
            for size in PageSize::ALL {
                let vpn = va.vpn_at(size);
                let offset = va.page_offset_at(size);
                assert!(offset < size.bytes());
                assert_eq!(vpn.base_at(size).raw() + offset, raw, "VA {raw:#x} at {size}");
            }
        }
    }

    #[test]
    fn sized_pfn_offset_roundtrip() {
        for raw in SAMPLE_ADDRS {
            let pa = PhysAddr::new(raw);
            for size in PageSize::ALL {
                let pfn = pa.pfn_at(size);
                assert_eq!(pfn.base_at(size).raw() + pa.raw() % size.bytes(), raw);
            }
        }
    }

    #[test]
    fn sized_accessors_reduce_to_legacy_at_4k() {
        for raw in SAMPLE_ADDRS {
            let va = VirtAddr::new(raw);
            assert_eq!(va.vpn_at(PageSize::Size4K), va.vpn());
            assert_eq!(va.page_offset_at(PageSize::Size4K), va.page_offset());
            let pa = PhysAddr::new(raw);
            assert_eq!(pa.pfn_at(PageSize::Size4K), pa.pfn());
            assert_eq!(pa.pfn().base_at(PageSize::Size4K), pa.pfn().base());
            assert_eq!(va.vpn().base_at(PageSize::Size4K), va.vpn().base());
            assert_eq!(pa.block().pfn_at(PageSize::Size4K), pa.block().pfn());
        }
    }

    #[test]
    fn block_to_sized_pfn_consistent() {
        // Bfn -> Pfn at size s must agree with PhysAddr -> Pfn at size s:
        // the shift is size.shift() - BLOCK_SHIFT.
        for raw in SAMPLE_ADDRS {
            let pa = PhysAddr::new(raw);
            for size in PageSize::ALL {
                assert_eq!(pa.block().pfn_at(size), pa.pfn_at(size), "PA {raw:#x} at {size}");
                assert_eq!(
                    pa.block().pfn_at(size).raw(),
                    pa.block().raw() >> (size.shift() - BLOCK_SHIFT)
                );
            }
        }
        // Huge sizes also relate through the unit shift from the 4 KB PFN.
        let pa = PhysAddr::new(0xdead_beef_cafe);
        for size in PageSize::ALL {
            assert_eq!(pa.block().pfn_at(size), size.pfn_unit(pa.pfn()));
        }
    }

    #[test]
    fn pte_indices_cover_unit_vpns_at_each_size() {
        // Reassembling the radix indices from the terminal level up must
        // reproduce the unit VPN, at every size.
        let va = VirtAddr::new(0x0eba_9876_5432 & ((1 << 48) - 1));
        for size in PageSize::ALL {
            let unit = va.vpn_at(size);
            let terminal = size.terminal_level() as u32;
            let mut rebuilt = 0u64;
            for level in (terminal..4).rev() {
                rebuilt = (rebuilt << 9) | unit.pte_index(level, size) as u64;
            }
            assert_eq!(rebuilt, unit.raw(), "{size}");
        }
    }

    #[test]
    fn pte_index_matches_radix_index_at_4k() {
        let vpn = Vpn::new(0x0eba_9876_5432 & ((1 << 36) - 1));
        for level in 0..4 {
            assert_eq!(vpn.pte_index(level, PageSize::Size4K), vpn.radix_index(level));
        }
    }

    #[test]
    fn pte_index_depth_shrinks_with_size() {
        // A 2 MB unit VPN's level-1 (terminal) index uses its low 9 bits;
        // a 1 GB unit VPN's level-2 (terminal) index likewise.
        let unit = Vpn::new(0b1_0000_0011); // 0x103
        assert_eq!(unit.pte_index(1, PageSize::Size2M), 0x103);
        assert_eq!(unit.pte_index(2, PageSize::Size2M), 0);
        assert_eq!(unit.pte_index(2, PageSize::Size1G), 0x103);
        assert_eq!(unit.pte_index(3, PageSize::Size1G), 0);
    }

    #[test]
    #[should_panic(expected = "terminates at level 1")]
    fn pte_index_rejects_levels_below_terminal_2m() {
        Vpn::new(0).pte_index(0, PageSize::Size2M);
    }

    #[test]
    #[should_panic(expected = "terminates at level 2")]
    fn pte_index_rejects_levels_below_terminal_1g() {
        Vpn::new(0).pte_index(1, PageSize::Size1G);
    }

    #[test]
    #[should_panic(expected = "four-level")]
    fn pte_index_rejects_level_4() {
        Vpn::new(0).pte_index(4, PageSize::Size2M);
    }
}
