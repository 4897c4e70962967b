//! Trace-driven memory-hierarchy simulator: caches, TLBs, page-table walks
//! and a mechanistic out-of-order core timing model.
//!
//! This crate is the substrate under the dead-page/dead-block predictors of
//! the HPCA 2021 paper *"Dead Page and Dead Block Predictors: Cleaning TLBs
//! and Caches Together"*. It models the machine of the paper's Table I:
//!
//! * a three-level data-cache hierarchy with an **inclusive LLC**
//!   ([`hierarchy`]);
//! * split L1 I/D TLBs, one structure per page size ([`tlb`]), and a
//!   unified **L2 TLB (the last-level TLB)**;
//! * one level type, [`cache::Cache`], generic over its payload, for the
//!   L1D, the L2, the LLC and the LLT;
//! * a four-level radix **page table allocated in simulated physical
//!   memory**, walked through the data caches ([`page_table`], [`walker`]),
//!   accelerated by three **page-walk caches** ([`pwc`]);
//! * a ROB-based **timing model** in which independent misses overlap
//!   ([`core_model`]);
//! * deadness **sampling and eviction classification** used by the paper's
//!   characterization figures, charged by one [`stats::Ledger`] for each
//!   last level, the LLT and the LLC, at every fill of it ([`stats`]).
//!
//! Management policies (dpPred, cbPred, SHiP, AIP, ...) plug in through the
//! hook traits in [`policy`]; the implementations live in `dpc-predictors`.
//!
//! # Example
//!
//! ```
//! use dpc_memsim::System;
//! use dpc_types::{Event, Pc, SystemConfig, VirtAddr, Workload};
//!
//! struct Stream(u64);
//! impl Workload for Stream {
//!     fn name(&self) -> &str { "stream" }
//!     fn next_event(&mut self) -> Option<Event> {
//!         if self.0 == 0 { return None; }
//!         self.0 -= 1;
//!         Some(Event::load(Pc::new(0x400), VirtAddr::new(0x10_0000 + self.0 * 64)))
//!     }
//! }
//!
//! let mut system = System::new(SystemConfig::paper_baseline()).unwrap();
//! system.run(&mut Stream(10_000));
//! let stats = system.stats();
//! assert_eq!(stats.mem_ops, 10_000);
//! // L1D also serves the page walker's PTE loads.
//! assert!(stats.l1d.lookups >= 10_000);
//! assert!(stats.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod core_model;
pub mod hierarchy;
pub mod page_table;
pub mod policy;
pub mod pwc;
mod reverse_map;
pub mod set_assoc;
pub mod soa;
pub mod stats;
pub mod system;
pub mod tlb;
pub mod walker;

pub use policy::{
    AccuracyReport, BlockFillDecision, EvictedBlock, EvictedPage, InsertPriority, LlcPolicy,
    LltPolicy, NullBlockPolicy, NullPagePolicy, PageFillDecision, PolicyLineView,
};
pub use set_assoc::MAX_RUN_MEM_OPS;
pub use stats::{DeadnessStats, EvictionClasses, SimStats, StructStats};
pub use system::{System, SystemError};
