//! Pins the predictors' accuracy counts (paper Tables VI/VII).
//!
//! The `--quick` goldens run too few memory operations to evict from the
//! LLT, so their accuracy tables read all zeros, and the perfbench
//! digests hash [`SimStats`] only. Each case below runs canneal at Small
//! scale long enough for both predictors to bypass, and compares the
//! full LLT-side and LLC-side [`AccuracyReport`]s with values recorded
//! before the ghost trackers moved from per-set deques to rings. They
//! change only with the simulated model or the predictors.

use dpc::prelude::*;
use dpc_memsim::policy::AccuracyReport;
use dpc_types::TlbFillPolicy;

const WARMUP_MEM_OPS: u64 = 20_000;
const MEASURE_MEM_OPS: u64 = 100_000;

/// One pinned run: its machine, its policy pair and what it must report.
struct Case {
    label: &'static str,
    system: SystemConfig,
    tlb_policy: TlbPolicySel,
    llc_policy: LlcPolicySel,
    llt_shadow_hits: u64,
    llt: AccuracyReport,
    llc: AccuracyReport,
}

const fn report(
    predictions: u64,
    correct: u64,
    mispredictions: u64,
    true_doas: u64,
) -> AccuracyReport {
    AccuracyReport { predictions, correct, mispredictions, true_doas }
}

fn cases() -> [Case; 5] {
    let base = SystemConfig::paper_baseline();
    [
        Case {
            label: "dpPred+cbPred",
            system: base,
            tlb_policy: TlbPolicySel::DpPred,
            llc_policy: LlcPolicySel::CbPred,
            llt_shadow_hits: 0,
            llt: report(69_900, 67_745, 2_155, 101_293),
            llc: report(17_838, 17_702, 136, 80_010),
        },
        Case {
            label: "dpPred-SH+cbPred-PF",
            system: base,
            tlb_policy: TlbPolicySel::DpPredNoShadow,
            llc_policy: LlcPolicySel::CbPredNoPfq,
            llt_shadow_hits: 0,
            llt: report(69_900, 67_745, 2_155, 101_293),
            llc: report(39_020, 38_652, 368, 80_074),
        },
        Case {
            label: "SHiP-TLB+SHiP-LLC",
            system: base,
            tlb_policy: TlbPolicySel::ShipTlb,
            llc_policy: LlcPolicySel::ShipLlc,
            llt_shadow_hits: 0,
            llt: report(104_771, 102_904, 1_867, 103_839),
            llc: report(80_527, 79_931, 596, 80_191),
        },
        Case {
            label: "dpPred+cbPred/L1ThenVictim",
            system: base.with_tlb_fill(TlbFillPolicy::L1ThenVictim),
            tlb_policy: TlbPolicySel::DpPred,
            llc_policy: LlcPolicySel::CbPred,
            llt_shadow_hits: 24,
            llt: report(65_332, 63_230, 2_102, 101_000),
            llc: report(0, 0, 0, 79_976),
        },
        Case {
            label: "dpPred+cbPred/Promote2M",
            system: base.with_page_policy(AllocPolicy::Promote2M { threshold: 64 }),
            tlb_policy: TlbPolicySel::DpPred,
            llc_policy: LlcPolicySel::CbPred,
            llt_shadow_hits: 7,
            llt: report(7_911, 3_150, 4_761, 4_052),
            llc: report(322, 321, 1, 78_215),
        },
    ]
}

#[test]
fn accuracy_counts_are_pinned() {
    let factory = WorkloadFactory::new(Scale::Small, 42);
    let mut mismatches = Vec::new();
    for case in cases() {
        let config = RunConfig::baseline(WARMUP_MEM_OPS, MEASURE_MEM_OPS)
            .with_system(case.system)
            .with_policies(case.tlb_policy, case.llc_policy);
        let result = dpc::run_workload(&factory, "canneal", &config);
        let llt = result.llt_accuracy.expect("the TLB-side policy reports accuracy");
        let llc = result.llc_accuracy.expect("the LLC-side policy reports accuracy");
        let shadow_hits = result.stats.llt.shadow_hits;
        if (shadow_hits, llt, llc) != (case.llt_shadow_hits, case.llt, case.llc) {
            mismatches.push(format!(
                "{}: got llt_shadow_hits: {shadow_hits},\n  llt: {llt:?},\n  llc: {llc:?}",
                case.label
            ));
        }
    }
    assert!(mismatches.is_empty(), "pinned accuracy counts moved:\n{}", mismatches.join("\n"));
}

/// The pins mean something only if they cover a detected misprediction
/// on each side and a shadow-table hit.
#[test]
fn pins_cover_mispredictions_and_shadow_hits() {
    let cases = cases();
    assert!(cases.iter().any(|c| c.llt.mispredictions > 0 && c.llc.mispredictions > 0));
    assert!(cases.iter().any(|c| c.llt_shadow_hits > 0));
    for case in &cases {
        assert!(case.llt.predictions > 0, "{}: the LLT side never bypassed", case.label);
    }
}
