//! The paper's predictors and the baselines they are evaluated against.
//!
//! * [`dppred`] — **dpPred**, the dead-page (DOA) predictor for the
//!   last-level TLB: a two-dimensional pHIST indexed by hashed PC × hashed
//!   VPN, a bypass decision at fill, and a tiny shadow table providing
//!   negative feedback (paper Section V-A).
//! * [`cbpred`] — **cbPred**, the correlating dead-block predictor for the
//!   LLC: a PFN filter queue fed by dpPred's DOA-page predictions gates a
//!   small bHIST (paper Section V-B).
//! * [`ship`] — SHiP (Wu et al., MICRO'11) adapted to the LLC and, as in
//!   the paper's comparison, to the LLT.
//! * [`aip`] — the counter-based access-interval predictor (Kharbutli &
//!   Solihin) for LLC and LLT.
//! * [`dueling`] — an extension beyond the paper: dpPred under DIP-style
//!   set-dueling bypass control.
//! * [`oracle`] — two oracles: a Belady lookahead oracle (used for the
//!   paper's Table IV upper bound) and a two-pass DOA replay.
//! * [`ghost`] — the ghost-FIFO machinery that measures the accuracy and
//!   coverage of *bypass* predictions (a bypassed entry has no stay to
//!   observe, so its fate is tracked in a shadow structure).
//! * [`storage`] — the storage-overhead model reproducing the byte budgets
//!   of paper Sections V-D and VI-D.
//!
//! All predictors implement the [`LltPolicy`](dpc_memsim::LltPolicy) /
//! [`LlcPolicy`](dpc_memsim::LlcPolicy) hook traits and plug into
//! [`System::with_typed_policies`](dpc_memsim::System::with_typed_policies),
//! which monomorphizes the simulator around the concrete policy pair.
//!
//! # Example
//!
//! ```
//! use dpc_memsim::System;
//! use dpc_predictors::{CbPred, DpPred};
//! use dpc_types::SystemConfig;
//!
//! let config = SystemConfig::paper_baseline();
//! let system = System::with_typed_policies(
//!     config,
//!     DpPred::paper_default(),
//!     CbPred::paper_default(&config.llc),
//! )?;
//! # let _ = system;
//! # Ok::<(), dpc_memsim::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aip;
pub mod cbpred;
pub mod dppred;
pub mod dueling;
pub mod ghost;
pub mod oracle;
pub mod ship;
pub mod storage;

pub use aip::{AipLlc, AipTlb};
pub use cbpred::{CbPred, CbPredConfig};
pub use dppred::{DpPred, DpPredConfig};
pub use dueling::DuelingDpPred;
pub use ghost::GhostTracker;
pub use oracle::{BeladyOracle, DoaRecorder, LookupRecorder, LookupTrace, OracleBypass};
pub use ship::{ShipLlc, ShipTlb};
