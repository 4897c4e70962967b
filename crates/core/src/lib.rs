//! # dpc — Dead Page and Dead Block Predictors
//!
//! A from-scratch Rust reproduction of *"Dead Page and Dead Block
//! Predictors: Cleaning TLBs and Caches Together"* (Mazumdar, Mitra &
//! Basu, HPCA 2021): the **dpPred** dead-page predictor for the last-level
//! TLB, the **cbPred** correlating dead-block predictor for the LLC, the
//! full simulation substrate they run on, the baselines they are compared
//! against (SHiP, AIP, iso-storage, approximate oracle, SRRIP), the 14
//! synthetic workloads of the evaluation, and a harness regenerating every
//! table and figure of the paper.
//!
//! This crate is the front door: it re-exports the building blocks and
//! hosts the experiment definitions. The layers underneath:
//!
//! * `dpc-types` — addresses, hashing, configuration;
//! * `dpc-memsim` — caches, TLBs, page walks, core timing model;
//! * `dpc-predictors` — dpPred, cbPred, SHiP, AIP, oracle, storage model;
//! * `dpc-workloads` — the 14 trace generators.
//!
//! # Quickstart
//!
//! ```
//! use dpc::prelude::*;
//!
//! // Build the paper's machine with dpPred + cbPred attached. Typed
//! // policies monomorphize the whole simulation loop around the pair.
//! let config = SystemConfig::paper_baseline();
//! let mut system = System::with_typed_policies(
//!     config,
//!     DpPred::paper_default(),
//!     CbPred::paper_default(&config.llc),
//! )?;
//!
//! // Run a workload for 50K memory operations.
//! let factory = WorkloadFactory::new(Scale::Tiny, 42);
//! let mut workload = factory.build("bfs").expect("bfs is a known workload");
//! system.run_until(workload.as_mut(), 50_000);
//! let stats = system.stats();
//!
//! println!("IPC {:.3}, LLT MPKI {:.2}, LLC MPKI {:.2}",
//!          stats.ipc(), stats.llt_mpki(), stats.llc_mpki());
//! # Ok::<(), dpc_memsim::SystemError>(())
//! ```
//!
//! # Regenerating the paper's results
//!
//! Each table and figure has an experiment function in [`experiments`];
//! the `paper` binary in `dpc-bench` drives them:
//!
//! ```text
//! cargo run --release -p dpc-bench --bin paper -- all
//! cargo run --release -p dpc-bench --bin paper -- fig9 table4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod dispatch;
pub mod experiments;
pub mod report;
pub mod runner;

pub use campaign::{CampaignStats, RunTiming, SimKind};
pub use dispatch::{dispatch, PolicyApply};
pub use experiments::{CampaignPlan, EnvError, ExperimentContext, ExperimentOptions, RunKey};
pub use report::{geomean, ExpTable, Summary};
pub use runner::{run_oracle, run_workload, LlcPolicySel, RunConfig, RunResult, TlbPolicySel};

/// Convenient re-exports for applications.
pub mod prelude {
    pub use crate::campaign::{self, CampaignStats};
    pub use crate::experiments::{self, CampaignPlan, ExperimentContext, ExperimentOptions};
    pub use crate::report::ExpTable;
    pub use crate::runner::{
        run_oracle, run_workload, LlcPolicySel, RunConfig, RunResult, TlbPolicySel,
    };
    pub use dpc_memsim::{
        LevelPolicy, LlcPolicy, LltPolicy, NullBlockPolicy, NullPagePolicy, SimStats, System,
    };
    pub use dpc_predictors::{AipLlc, AipTlb, CbPred, DpPred, OracleBypass, ShipLlc, ShipTlb};
    pub use dpc_types::{
        AccessKind, AllocPolicy, Event, EventStream, PageSize, Pc, SystemConfig, VirtAddr, Workload,
    };
    pub use dpc_workloads::{
        CaptureReport, EventCursor, EventSource, Scale, TraceStore, WorkloadFactory, WORKLOAD_NAMES,
    };
}
