//! Bring your own workload: implement [`Workload`] for a custom access
//! pattern and run it through the full simulator.
//!
//! The example models a hash-join probe phase: a sequential scan of a
//! probe relation, a hash computation, and a random lookup into a large
//! hash table — a classic mixed hot/cold page pattern where a dead-page
//! predictor protects the hot bucket-header pages from the cold probe
//! stream.
//!
//! ```text
//! cargo run --release -p dpc --example custom_workload
//! ```

use dpc::prelude::*;

/// A synthetic hash-join probe: stream the outer relation, probe a hash
/// table, follow one chain link.
struct HashJoinProbe {
    /// Next probe-relation row.
    row: u64,
    rows: u64,
    /// Base of the probe relation (32-byte tuples).
    relation_base: u64,
    /// Base of the bucket-header array (hot: 1 MB).
    headers_base: u64,
    header_entries: u64,
    /// Base of the overflow-chain node pool (cold: 128 MB).
    nodes_base: u64,
    node_entries: u64,
    emitted: std::collections::VecDeque<Event>,
}

impl HashJoinProbe {
    fn new() -> Self {
        HashJoinProbe {
            row: 0,
            rows: u64::MAX,
            relation_base: 0x1000_0000,
            headers_base: 0x3000_0000,
            header_entries: 1 << 17, // 128K × 8 B = 1 MB of headers
            nodes_base: 0x5000_0000,
            node_entries: 1 << 22, // 4M × 32 B = 128 MB of chain nodes
            emitted: std::collections::VecDeque::new(),
        }
    }

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }
}

impl Workload for HashJoinProbe {
    fn name(&self) -> &str {
        "hash-join-probe"
    }

    fn next_event(&mut self) -> Option<Event> {
        if let Some(event) = self.emitted.pop_front() {
            return Some(event);
        }
        if self.row >= self.rows {
            return None;
        }
        let row = self.row;
        self.row += 1;
        // 1. Stream the probe tuple (sequential, one-touch pages).
        let tuple = VirtAddr::new(self.relation_base + (row % (1 << 22)) * 32);
        self.emitted.push_back(Event::load(Pc::new(0x40_1000), tuple));
        // 2. Hash → bucket header (hot 1 MB region, heavily reused).
        let bucket = Self::mix(row) % self.header_entries;
        let header = VirtAddr::new(self.headers_base + bucket * 8);
        self.emitted.push_back(Event::load(Pc::new(0x40_1004), header));
        // 3. Follow one chain node (cold 128 MB pool, effectively random).
        let node = Self::mix(row ^ 0xABCD) % self.node_entries;
        let chain = VirtAddr::new(self.nodes_base + node * 32);
        self.emitted.push_back(Event::load(Pc::new(0x40_1008), chain));
        // A little compute between probes.
        self.emitted.push_back(Event::Compute { ops: 4 });
        self.emitted.pop_front()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::paper_baseline();
    let mem_ops = 600_000;

    let mut baseline_system = System::new(config)?;
    baseline_system.run_until(&mut HashJoinProbe::new(), mem_ops);
    let baseline = baseline_system.stats();

    let mut predicted_system = System::with_typed_policies(
        config,
        DpPred::paper_default(),
        CbPred::paper_default(&config.llc),
    )?;
    predicted_system.run_until(&mut HashJoinProbe::new(), mem_ops);
    let predicted = predicted_system.stats();

    println!("hash-join probe, {} memory operations\n", mem_ops);
    println!("{:<16}{:>12}{:>16}", "", "baseline", "dpPred+cbPred");
    println!("{:<16}{:>12.3}{:>16.3}", "IPC", baseline.ipc(), predicted.ipc());
    println!("{:<16}{:>12.2}{:>16.2}", "LLT MPKI", baseline.llt_mpki(), predicted.llt_mpki());
    println!("{:<16}{:>12.2}{:>16.2}", "LLC MPKI", baseline.llc_mpki(), predicted.llc_mpki());
    println!(
        "\nThe cold chain-node pages are bypassed ({} LLT bypasses), keeping the\n\
         hot bucket-header pages resident in the L2 TLB.",
        predicted.llt.bypasses
    );
    Ok(())
}
