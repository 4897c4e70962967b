//! Synthetic trace generators reproducing the paper's 14 workloads
//! (Table II).
//!
//! The paper drives Sniper with Pin-instrumented SPEC / GAP / Ligra /
//! PARSEC / NPB binaries. Those binaries cannot run here, so each workload
//! is reproduced as a **deterministic algorithmic access-trace generator**:
//! the actual algorithm executes over synthetic inputs (R-MAT or uniform
//! random graphs, 3-D grids, sparse matrices) laid out in a modeled 48-bit
//! virtual address space, and every load/store the algorithm performs is
//! emitted as a [`Event::Mem`](dpc_types::Event) tagged with a static
//! PC site, interleaved with `Compute` events mimicking instruction mix.
//! See DESIGN.md §3 for why this preserves the behaviour the paper's
//! predictors depend on.
//!
//! | name | models | pattern |
//! |------|--------|---------|
//! | `cactusADM` | SPEC 2006 cactusADM | 7-point stencil over many grid functions |
//! | `lbm` | SPEC 2017 lbm | D3Q19 lattice-Boltzmann streaming (38 page streams) |
//! | `cg.B` | NPB conjugate gradient | SpMV + vector ops on a random sparse matrix |
//! | `cc` | GAPBS connected components | label propagation over edges |
//! | `sssp` | GAPBS single-source shortest path | Bellman-Ford rounds |
//! | `pr` | GAPBS PageRank | pull-based rank accumulation |
//! | `bc` | GAPBS betweenness centrality | forward BFS + backward accumulation |
//! | `graph500` | Graph500 BFS | frontier BFS over an R-MAT graph |
//! | `bfs` | Ligra BFS | frontier BFS over a uniform graph |
//! | `Triangle` | Ligra triangle counting | sorted adjacency intersection |
//! | `KCore` | Ligra k-core decomposition | iterative degree peeling |
//! | `mis` | Ligra maximal independent set | Luby rounds |
//! | `canneal` | PARSEC canneal | random element swaps in a big netlist |
//! | `mcf` | SPEC 2006 mcf | pointer chasing over arc lists + pricing sweeps |
//!
//! All generators are **infinite** (outer iterations loop forever):
//! bound runs with [`System::run_until`](../dpc_memsim/struct.System.html).
//!
//! # Example
//!
//! ```
//! use dpc_workloads::{WorkloadFactory, Scale, WORKLOAD_NAMES};
//!
//! let factory = WorkloadFactory::new(Scale::Tiny, 42);
//! let mut bfs = factory.build("bfs").expect("bfs is a known workload");
//! assert_eq!(bfs.name(), "bfs");
//! assert!(WORKLOAD_NAMES.contains(&"bfs"));
//! # use dpc_types::Workload;
//! assert!(bfs.next_event().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod canneal;
pub mod emitter;
pub mod gapbs;
pub mod graph;
pub mod layout;
pub mod ligra;
pub mod mcf;
pub mod spmv;
pub mod stencil;
pub mod store;
pub mod trace;

use dpc_types::Workload;
use graph::CsrGraph;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

pub use emitter::{Algorithm, Emitter, Generator};
pub use layout::{AddressSpace, VArray};
pub use store::{CaptureReport, EventCursor, EventSource, TraceStore};

/// SplitMix64 finalizer: a cheap, high-quality deterministic hash used to
/// derive synthetic data (edge weights, neighbor ids) from indices.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's 14 workloads (Table II order).
pub const WORKLOAD_NAMES: [&str; 14] = [
    "cactusADM",
    "cc",
    "cg.B",
    "sssp",
    "lbm",
    "Triangle",
    "KCore",
    "canneal",
    "pr",
    "graph500",
    "bfs",
    "bc",
    "mis",
    "mcf",
];

/// Input-size presets.
///
/// The paper uses 300–900 MB footprints; these presets scale that down
/// while keeping footprint ≫ LLT reach (4 MB) and ≫ LLC (2 MB), the regime
/// that produces dead pages and dead blocks (see DESIGN.md §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// A few MB — for unit/integration tests only.
    Tiny,
    /// Tens of MB — the default for experiment regeneration.
    #[default]
    Small,
    /// 100–300 MB — closest to the paper's footprints (slow).
    Paper,
}

impl Scale {
    /// Graph vertex count at this scale. Property arrays (4 B/vertex) must
    /// exceed the LLT reach for the paper's dead-page regime to appear:
    /// 1024 entries × 4 KB pages = 4 MB, which a 4 B/vertex array fills at
    /// 2^20 vertices. Small uses 2^22 vertices, so each such array spans
    /// 16 MB, four times the reach.
    pub fn graph_vertices(self) -> u32 {
        match self {
            Scale::Tiny => 1 << 13,
            Scale::Small => 1 << 22,
            Scale::Paper => 1 << 23,
        }
    }

    /// Average graph degree at this scale.
    pub fn graph_degree(self) -> u32 {
        match self {
            Scale::Tiny | Scale::Small => 8,
            Scale::Paper => 16,
        }
    }

    /// Cubic-grid edge length at this scale (lbm's D3Q19 lattice).
    pub fn grid_dim(self) -> u32 {
        match self {
            Scale::Tiny => 16,
            Scale::Small => 56,
            Scale::Paper => 128,
        }
    }

    /// cactusADM grid edge length. The kernel's cyclic page working set is
    /// `~14 × dim` pages (see `stencil::CactusAdm`); dim 144 puts it at
    /// ~2000 pages — above even a 1536-entry LLT, the thrash regime the
    /// paper reports for this workload, where dpPred's gains *grow* with
    /// LLT size (Fig. 11a: 1.37× → 1.45× → 1.59×). The 14-array footprint
    /// (~1.3 GB virtual) also pushes the leaf page-table level out of the
    /// LLC, making every walk genuinely expensive.
    pub fn cactus_dim(self) -> u32 {
        match self {
            Scale::Tiny => 16,
            Scale::Small => 144,
            Scale::Paper => 224,
        }
    }
}

/// An unknown workload name was requested.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownWorkload {
    name: String,
}

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload {:?} (known: {})", self.name, WORKLOAD_NAMES.join(", "))
    }
}

impl Error for UnknownWorkload {}

/// Which shared input a workload consumes. Both graph inputs are R-MAT
/// (Kronecker) graphs — the GAPBS and Ligra evaluations use kron/rMat
/// inputs, whose skewed degree distribution produces the hot-hub /
/// cold-tail page mix the paper's predictors exploit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum InputKind {
    SharedGraph,
    Graph500Graph,
}

/// Lazily-built inputs shared by every clone of a factory. Each graph and
/// each captured event stream is built at most once per factory family,
/// even when clones race from several worker threads (`OnceLock`
/// serializes initialization), and the result is deterministic in
/// `(scale, seed)` regardless of which thread wins.
#[derive(Debug, Default)]
struct SharedInputs {
    shared_graph: OnceLock<Arc<CsrGraph>>,
    graph500_graph: OnceLock<Arc<CsrGraph>>,
    traces: TraceStore,
}

/// Builds workloads by name, caching the expensive shared inputs (graphs)
/// so a sweep over configurations does not regenerate them per run.
///
/// The factory is `Send + Sync` and cheap to clone: clones share the input
/// cache, so a parallel campaign can hand one clone to each worker thread
/// and still generate each graph only once. Workload construction itself
/// is deterministic in `(scale, seed)` alone — two factories (cloned or
/// not) with the same parameters produce bit-identical workloads.
#[derive(Clone, Debug)]
pub struct WorkloadFactory {
    scale: Scale,
    seed: u64,
    use_trace_store: bool,
    inputs: Arc<SharedInputs>,
}

impl WorkloadFactory {
    /// Creates a factory for the given scale and master seed. The same
    /// `(scale, seed)` always produces identical workloads.
    ///
    /// Runs replay from the shared [`TraceStore`]; see
    /// [`WorkloadFactory::source`].
    pub fn new(scale: Scale, seed: u64) -> Self {
        WorkloadFactory {
            scale,
            seed,
            use_trace_store: true,
            inputs: Arc::new(SharedInputs::default()),
        }
    }

    /// With `false`, [`WorkloadFactory::source`] generates every run live
    /// instead of replaying from the store: the reference that replay is
    /// tested and benchmarked against. Clones inherit the setting; the
    /// underlying store stays shared either way.
    pub fn with_trace_store(mut self, enabled: bool) -> Self {
        self.use_trace_store = enabled;
        self
    }

    /// The factory's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The factory's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared trace store backing this factory family.
    pub fn trace_store(&self) -> &TraceStore {
        &self.inputs.traces
    }

    fn graph(&self, kind: InputKind) -> Arc<CsrGraph> {
        let cell = match kind {
            InputKind::SharedGraph => &self.inputs.shared_graph,
            InputKind::Graph500Graph => &self.inputs.graph500_graph,
        };
        Arc::clone(cell.get_or_init(|| {
            let n = self.scale.graph_vertices();
            let deg = self.scale.graph_degree();
            Arc::new(match kind {
                InputKind::SharedGraph => CsrGraph::rmat(n, deg, self.seed ^ 0x1111),
                InputKind::Graph500Graph => CsrGraph::rmat(n, deg, self.seed ^ 0x2222),
            })
        }))
    }

    /// Builds the named workload.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if `name` is not one of
    /// [`WORKLOAD_NAMES`].
    pub fn build(&self, name: &str) -> Result<Box<dyn Workload>, UnknownWorkload> {
        let scale = self.scale;
        let seed = self.seed;
        let shared = || InputKind::SharedGraph;
        Ok(match name {
            "cactusADM" => Box::new(stencil::cactus_adm(scale)),
            "lbm" => Box::new(stencil::lbm(scale)),
            "cg.B" => Box::new(spmv::cg(scale, seed ^ 0x3333)),
            "cc" => Box::new(gapbs::cc(self.graph(shared()))),
            "sssp" => Box::new(gapbs::sssp(self.graph(shared()), seed ^ 0x4444)),
            "pr" => Box::new(gapbs::pr(self.graph(shared()))),
            "bc" => Box::new(gapbs::bc(self.graph(shared()), seed ^ 0x5555)),
            "graph500" => Box::new(ligra::bfs_named(
                self.graph(InputKind::Graph500Graph),
                "graph500",
                seed ^ 0x6666,
            )),
            "bfs" => Box::new(ligra::bfs_named(self.graph(shared()), "bfs", seed ^ 0x7777)),
            "Triangle" => Box::new(ligra::triangle(self.graph(shared()))),
            "KCore" => Box::new(ligra::kcore(self.graph(shared()))),
            "mis" => Box::new(ligra::mis(self.graph(shared()), seed ^ 0x8888)),
            "canneal" => Box::new(canneal::canneal(scale, seed ^ 0x9999)),
            "mcf" => Box::new(mcf::mcf(scale, seed ^ 0xAAAA)),
            other => return Err(UnknownWorkload { name: other.to_owned() }),
        })
    }

    /// Returns a zero-copy replay cursor over the named workload's
    /// stream, capturing it into the shared [`TraceStore`] on first
    /// request. The stream covers exactly `mem_ops` memory events (plus
    /// interleaved compute events), the prefix a `mem_ops`-bounded
    /// simulation consumes.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if `name` is not one of
    /// [`WORKLOAD_NAMES`].
    pub fn stream(
        &self,
        name: &str,
        mem_ops: u64,
    ) -> Result<(EventCursor, CaptureReport), UnknownWorkload> {
        if !WORKLOAD_NAMES.contains(&name) {
            return Err(UnknownWorkload { name: name.to_owned() });
        }
        let (events, report) = self.inputs.traces.get_or_capture(name, mem_ops, || {
            self.build(name).expect("name was validated against WORKLOAD_NAMES")
        });
        Ok((EventCursor::new(name, events), report))
    }

    /// Builds the event source for one simulation run covering `mem_ops`
    /// memory events: a replay cursor from the shared store when the
    /// store is enabled (see [`WorkloadFactory::with_trace_store`]), a
    /// fresh live generator otherwise. Both yield bit-identical events.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if `name` is not one of
    /// [`WORKLOAD_NAMES`].
    pub fn source(
        &self,
        name: &str,
        mem_ops: u64,
    ) -> Result<(EventSource, CaptureReport), UnknownWorkload> {
        if self.use_trace_store {
            let (cursor, report) = self.stream(name, mem_ops)?;
            Ok((EventSource::Replay(cursor), report))
        } else {
            Ok((EventSource::Live(self.build(name)?), CaptureReport::default()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_types::Event;

    #[test]
    fn all_fourteen_build_and_emit() {
        let factory = WorkloadFactory::new(Scale::Tiny, 1);
        for name in WORKLOAD_NAMES {
            let mut w = factory.build(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(w.name(), name);
            let mut mems = 0;
            for _ in 0..10_000 {
                match w.next_event() {
                    Some(Event::Mem { .. }) => mems += 1,
                    Some(Event::Compute { .. }) => {}
                    None => panic!("{name} must be an infinite generator"),
                }
            }
            assert!(mems > 1000, "{name} must be memory-intensive (got {mems} mem events)");
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for name in ["bfs", "canneal", "mcf", "sssp"] {
            let f1 = WorkloadFactory::new(Scale::Tiny, 7);
            let f2 = WorkloadFactory::new(Scale::Tiny, 7);
            let mut a = f1.build(name).unwrap();
            let mut b = f2.build(name).unwrap();
            for i in 0..50_000 {
                assert_eq!(a.next_event(), b.next_event(), "{name} diverged at event {i}");
            }
        }
    }

    #[test]
    fn seeds_change_streams() {
        let f1 = WorkloadFactory::new(Scale::Tiny, 7);
        let f2 = WorkloadFactory::new(Scale::Tiny, 8);
        let mut a = f1.build("canneal").unwrap();
        let mut b = f2.build("canneal").unwrap();
        let same = (0..10_000).all(|_| a.next_event() == b.next_event());
        assert!(!same, "different seeds must produce different traces");
    }

    #[test]
    fn unknown_name_errors() {
        let factory = WorkloadFactory::new(Scale::Tiny, 1);
        let Err(err) = factory.build("nope") else {
            panic!("unknown workload must error");
        };
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn graph_inputs_are_cached() {
        let factory = WorkloadFactory::new(Scale::Tiny, 1);
        factory.build("bfs").unwrap();
        let first = factory.inputs.shared_graph.get().expect("bfs builds the shared graph");
        let first = Arc::as_ptr(first);
        factory.build("pr").unwrap();
        assert_eq!(
            Arc::as_ptr(factory.inputs.shared_graph.get().unwrap()),
            first,
            "uniform graph must be built once"
        );
        assert!(factory.inputs.graph500_graph.get().is_none());
        factory.build("graph500").unwrap();
        assert!(factory.inputs.graph500_graph.get().is_some());
    }

    #[test]
    fn replay_is_bit_identical_to_live_generation_for_every_workload() {
        const MEM_OPS: u64 = 2_000;
        let factory = WorkloadFactory::new(Scale::Tiny, 42);
        let live_factory = WorkloadFactory::new(Scale::Tiny, 42);
        for name in WORKLOAD_NAMES {
            let (mut replay, report) = factory.stream(name, MEM_OPS).unwrap();
            assert!(report.captured, "{name}: first request must capture");
            let mut live = live_factory.build(name).unwrap();
            let mut replayed_mems = 0u64;
            let mut index = 0u64;
            while let Some(event) = replay.next_event() {
                assert_eq!(Some(event), live.next_event(), "{name} diverged at event {index}");
                if event.is_mem() {
                    replayed_mems += 1;
                }
                index += 1;
            }
            assert_eq!(replayed_mems, MEM_OPS, "{name}: stream must cover the mem-op budget");
            // Second request for the same key replays the cached stream.
            let (_, report) = factory.stream(name, MEM_OPS).unwrap();
            assert!(!report.captured, "{name}: second request must hit the cache");
        }
        assert_eq!(factory.trace_store().entries(), WORKLOAD_NAMES.len());
    }

    #[test]
    fn source_replays_by_default_and_respects_trace_store_toggle() {
        let on = WorkloadFactory::new(Scale::Tiny, 3);
        let off = on.clone().with_trace_store(false);
        let (mut replay, _) = on.source("mcf", 100).unwrap();
        let (mut live, report) = off.source("mcf", 100).unwrap();
        assert!(matches!(replay, EventSource::Replay(_)));
        assert!(matches!(live, EventSource::Live(_)));
        assert!(!report.captured, "live sources never charge capture time");
        for i in 0..150 {
            let replayed = replay.next_event();
            let generated = live.next_event();
            if i < 100 {
                assert_eq!(replayed, generated, "event {i}");
            } else {
                assert!(generated.is_some(), "live generator is unbounded");
            }
        }
        assert!(on.source("nope", 100).is_err());
        assert!(off.source("nope", 100).is_err());
    }

    #[test]
    fn clones_share_inputs_and_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorkloadFactory>();

        let factory = WorkloadFactory::new(Scale::Tiny, 1);
        let clone = factory.clone();
        let handle = std::thread::spawn(move || {
            clone.build("bfs").unwrap();
            clone
        });
        let clone = handle.join().unwrap();
        factory.build("pr").unwrap();
        assert_eq!(
            Arc::as_ptr(factory.inputs.shared_graph.get().unwrap()),
            Arc::as_ptr(clone.inputs.shared_graph.get().unwrap()),
            "clones must share one graph instance"
        );
    }
}
