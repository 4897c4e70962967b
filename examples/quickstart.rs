//! Quickstart: build the paper's machine with dpPred + cbPred attached,
//! run one workload, and compare against the unmanaged baseline.
//!
//! ```text
//! cargo run --release -p dpc --example quickstart [workload] [mem_ops]
//! ```

use dpc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload_name = args.first().map_or("bfs", String::as_str);
    let mem_ops: u64 = args.get(1).map(|s| s.parse()).transpose()?.unwrap_or(500_000);

    let config = SystemConfig::paper_baseline();
    let factory = WorkloadFactory::new(Scale::Small, 42);

    // --- Baseline: plain LRU everywhere. ---
    let mut baseline_system = System::new(config)?;
    let mut workload = factory.build(workload_name)?;
    baseline_system.run_until(workload.as_mut(), mem_ops);
    let baseline = baseline_system.stats();

    // --- The paper's configuration: dpPred on the L2 TLB, cbPred on the
    //     LLC, coupled through the PFN filter queue. ---
    let mut predicted_system = System::with_typed_policies(
        config,
        DpPred::paper_default(),
        CbPred::paper_default(&config.llc),
    )?;
    let mut workload = factory.build(workload_name)?;
    predicted_system.run_until(workload.as_mut(), mem_ops);
    let predicted = predicted_system.stats();

    println!("workload: {workload_name} ({mem_ops} memory operations)\n");
    println!("{:<22}{:>12}{:>14}", "", "baseline", "dpPred+cbPred");
    let rows: [(&str, f64, f64); 5] = [
        ("IPC", baseline.ipc(), predicted.ipc()),
        ("LLT MPKI", baseline.llt_mpki(), predicted.llt_mpki()),
        ("LLC MPKI", baseline.llc_mpki(), predicted.llc_mpki()),
        ("LLT hit rate %", baseline.llt.hit_rate() * 100.0, predicted.llt.hit_rate() * 100.0),
        ("page walks", baseline.walks as f64, predicted.walks as f64),
    ];
    for (name, base, pred) in rows {
        println!("{name:<22}{base:>12.3}{pred:>14.3}");
    }
    println!(
        "\nLLT fills bypassed: {}  (shadow-table saves: {})",
        predicted.llt.bypasses, predicted.llt.shadow_hits
    );
    println!("LLC fills bypassed: {}", predicted.llc.bypasses);
    if let Some(report) = predicted_system.llt_policy().accuracy_report() {
        println!(
            "dpPred accuracy {:.1}%, coverage {:.1}%",
            report.accuracy() * 100.0,
            report.coverage() * 100.0
        );
    }
    if let Some(report) = predicted_system.llc_policy().accuracy_report() {
        println!(
            "cbPred accuracy {:.1}%, coverage {:.1}%",
            report.accuracy() * 100.0,
            report.coverage() * 100.0
        );
    }
    println!("\nIPC change: {:+.2}%", (predicted.ipc() / baseline.ipc() - 1.0) * 100.0);
    Ok(())
}
