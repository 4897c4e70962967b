//! Static dispatch over the paper's policy matrix.
//!
//! Every simulation the campaign runs is configured by a
//! ([`TlbPolicySel`], [`LlcPolicySel`]) pair. This module maps that pair
//! to *concrete policy types* and hands them to a caller-supplied
//! [`PolicyApply`] action, so the simulator underneath
//! (`System<L, C>`) is monomorphized per pair: the event loop, the SoA
//! set hooks and the pHIST/bHIST lookup+update paths all inline into one
//! straight-line loop per configuration, with no `dyn` indirection left
//! on the hot path (DESIGN.md §11).
//!
//! The selector space collapses onto five LLT policy types
//! (`NullPagePolicy`, `DpPred` — covering the default, no-shadow and
//! custom selectors — `DuelingDpPred`, `ShipTlb`, `AipTlb`) and four LLC
//! policy types (`NullBlockPolicy`, `CbPred` — covering the default,
//! no-PFQ and custom-PFQ selectors — `ShipLlc`, `AipLlc`), so the full
//! cross product costs 5 × 4 = 20 monomorphic instantiations of the
//! action.

use crate::runner::{LlcPolicySel, TlbPolicySel};
use dpc_memsim::{LlcPolicy, LltPolicy, NullBlockPolicy, NullPagePolicy};
use dpc_predictors::{
    AipLlc, AipTlb, CbPred, CbPredConfig, DpPred, DpPredConfig, DuelingDpPred, ShipLlc, ShipTlb,
};
use dpc_types::SystemConfig;

/// An action generic over the two policy types, applied by
/// [`dispatch`] with the concrete policies a selector pair names.
///
/// This is the visitor side of the double dispatch: Rust has no generic
/// closures, so the action is a struct carrying the call's context whose
/// [`PolicyApply::apply`] is instantiated once per policy-type pair.
pub trait PolicyApply {
    /// The action's result type.
    type Out;

    /// Runs the action with the constructed policy pair.
    fn apply<L: LltPolicy, C: LlcPolicy>(self, llt: L, llc: C) -> Self::Out;
}

/// Builds the concrete policies selected by `(tlb, llc)` for the machine
/// in `system` and applies `action` to them.
pub fn dispatch<A: PolicyApply>(
    tlb: TlbPolicySel,
    llc: LlcPolicySel,
    system: &SystemConfig,
    action: A,
) -> A::Out {
    match tlb {
        TlbPolicySel::Baseline => with_llc(NullPagePolicy, llc, system, action),
        TlbPolicySel::DpPred => {
            with_llc(DpPred::new(DpPredConfig::for_tlb(&system.l2_tlb)), llc, system, action)
        }
        TlbPolicySel::DpPredNoShadow => with_llc(
            DpPred::new(DpPredConfig {
                shadow_entries: 0,
                ..DpPredConfig::for_tlb(&system.l2_tlb)
            }),
            llc,
            system,
            action,
        ),
        TlbPolicySel::DpPredCustom(config) => with_llc(DpPred::new(config), llc, system, action),
        TlbPolicySel::DuelingDpPred => {
            with_llc(DuelingDpPred::new(DpPredConfig::for_tlb(&system.l2_tlb)), llc, system, action)
        }
        TlbPolicySel::ShipTlb => with_llc(ShipTlb::for_tlb(&system.l2_tlb), llc, system, action),
        TlbPolicySel::AipTlb => with_llc(AipTlb::paper_default(), llc, system, action),
    }
}

/// cbPred's base configuration for `system`: the paper defaults with the
/// PFQ matching grain set to the page policy's prediction unit.
fn cbpred_config(system: &SystemConfig) -> CbPredConfig {
    CbPredConfig {
        pfn_unit_shift: system.page_policy.prediction_unit_shift(),
        ..CbPredConfig::paper_default(&system.llc)
    }
}

/// Inner level of the double match: the LLT policy is already concrete;
/// pick the LLC policy type and run the action.
fn with_llc<A: PolicyApply, L: LltPolicy>(
    llt: L,
    llc: LlcPolicySel,
    system: &SystemConfig,
    action: A,
) -> A::Out {
    match llc {
        LlcPolicySel::Baseline => action.apply(llt, NullBlockPolicy),
        LlcPolicySel::CbPred => action.apply(llt, CbPred::new(cbpred_config(system))),
        LlcPolicySel::CbPredNoPfq => {
            action.apply(llt, CbPred::new(CbPredConfig { use_pfq: false, ..cbpred_config(system) }))
        }
        LlcPolicySel::CbPredPfq(entries) => action.apply(
            llt,
            CbPred::new(CbPredConfig { pfq_entries: entries, ..cbpred_config(system) }),
        ),
        LlcPolicySel::ShipLlc => action.apply(llt, ShipLlc::for_cache(&system.llc)),
        LlcPolicySel::AipLlc => action.apply(llt, AipLlc::paper_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reports the `policy_name`s the dispatcher actually constructed.
    struct Names;
    impl PolicyApply for Names {
        type Out = (&'static str, &'static str);
        fn apply<L: LltPolicy, C: LlcPolicy>(self, llt: L, llc: C) -> Self::Out {
            (llt.policy_name(), llc.policy_name())
        }
    }

    #[test]
    fn every_selector_maps_to_its_policy() {
        let system = SystemConfig::paper_baseline();
        let cases: &[(TlbPolicySel, LlcPolicySel, &str, &str)] = &[
            (TlbPolicySel::Baseline, LlcPolicySel::Baseline, "baseline", "baseline"),
            (TlbPolicySel::DpPred, LlcPolicySel::CbPred, "dpPred", "cbPred"),
            (TlbPolicySel::DpPredNoShadow, LlcPolicySel::CbPredNoPfq, "dpPred", "cbPred"),
            (
                TlbPolicySel::DpPredCustom(DpPredConfig::for_tlb(&system.l2_tlb)),
                LlcPolicySel::CbPredPfq(32),
                "dpPred",
                "cbPred",
            ),
            (TlbPolicySel::DuelingDpPred, LlcPolicySel::ShipLlc, "dueling-dpPred", "SHiP-LLC"),
            (TlbPolicySel::ShipTlb, LlcPolicySel::AipLlc, "SHiP-TLB", "AIP-LLC"),
            (TlbPolicySel::AipTlb, LlcPolicySel::Baseline, "AIP-TLB", "baseline"),
        ];
        for &(tlb, llc, want_llt, want_llc) in cases {
            let (llt, llc_name) = dispatch(tlb, llc, &system, Names);
            assert_eq!((llt, llc_name), (want_llt, want_llc), "{tlb:?}/{llc:?}");
        }
    }
}
