//! Foundational types for the `dpc` simulator workspace.
//!
//! This crate hosts the vocabulary shared by every other crate in the
//! reproduction of *"Dead Page and Dead Block Predictors: Cleaning TLBs and
//! Caches Together"* (HPCA 2021):
//!
//! * [`addr`] — strongly-typed virtual/physical addresses, page and cache
//!   block numbers ([`VirtAddr`], [`PhysAddr`], [`Vpn`], [`Pfn`],
//!   [`BlockAddr`], [`Pc`]);
//! * [`hash`] — the folded-XOR hash family the paper uses to index its
//!   history tables;
//! * [`counter`] — saturating confidence counters ([`SatCounter`]);
//! * [`config`] — the full simulated-machine configuration with builders
//!   mirroring Table I of the paper.
//!
//! # Example
//!
//! ```
//! use dpc_types::{VirtAddr, SystemConfig};
//!
//! let va = VirtAddr::new(0x7fff_dead_b000);
//! assert_eq!(va.vpn().raw(), 0x7fff_dead_b000 >> 12);
//!
//! let config = SystemConfig::paper_baseline();
//! assert_eq!(config.l2_tlb.entries, 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod config;
pub mod counter;
pub mod hash;
mod invariant;
pub mod page;
pub mod stream;
pub mod workload;

pub use addr::{AccessKind, BlockAddr, Pc, Pfn, PhysAddr, VirtAddr, Vpn};
pub use config::{
    CacheConfig, ConfigError, CoreConfig, PwcConfig, ReplacementKind, SystemConfig, TlbConfig,
    TlbFillPolicy,
};
pub use counter::SatCounter;
pub use page::{AllocPolicy, PageSize};
pub use stream::{EventStream, StreamCursor};
pub use workload::{Event, Workload};

/// log2 of the page size: 4 KiB pages throughout, as in the paper.
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// log2 of the cache block size: 64-byte blocks throughout.
pub const BLOCK_SHIFT: u32 = 6;
/// Cache block size in bytes.
pub const BLOCK_SIZE: u64 = 1 << BLOCK_SHIFT;
/// Number of cache blocks per page.
pub const BLOCKS_PER_PAGE: u64 = PAGE_SIZE / BLOCK_SIZE;
/// Virtual address width (x86-64 canonical), as assumed by the paper.
pub const VA_BITS: u32 = 48;
/// Physical address width, as assumed by the paper's storage analysis.
pub const PA_BITS: u32 = 51;
