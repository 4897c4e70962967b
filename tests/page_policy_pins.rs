//! Pins the page policies neither golden reaches.
//!
//! `tests/golden/paper_all_quick{,_2m}.txt` cover 4 KB and 2 MB pages;
//! no golden runs `Uniform(1G)`, and the `paper` CLI cannot select
//! `Promote2M`, the only policy whose LLT, shadow and reverse-map keys
//! carry a size tag. Each case below drives one short synthetic stream
//! through one of those policies, one TLB fill organisation and either
//! the null policies or dpPred+cbPred, and compares the full
//! [`SimStats`] (through a digest of their `Debug` rendering) with values
//! recorded before the page table and the reverse maps moved from hash
//! maps to dense tables. They change only with the simulated model.

use dpc::prelude::*;
use dpc::{dispatch, PolicyApply};
use dpc_types::TlbFillPolicy;

/// FNV-1a over bytes: stable across platforms and Rust versions.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A deterministic mix built so both reverse-map sizes see DOA blocks:
/// a quarter of the events load from a dense 8 MiB hot window (four 2 MB
/// regions, promoted after a few touches), half touch one random line of
/// a 64 GiB window (single-touch 4 KB pages in regions that stay below
/// any threshold, and 64 one-gigabyte pages, more than the 8-entry 1 GB
/// L1 TLB holds, so even the victim-fill organisation fills the LLT),
/// and a quarter are compute.
struct HotAndScattered {
    state: u64,
}

impl HotAndScattered {
    const HOT_BASE: u64 = 1 << 36;
    const COLD_BASE: u64 = 1 << 40;

    fn new() -> Self {
        HotAndScattered { state: 0x9E37_79B9_7F4A_7C15 }
    }
}

impl Workload for HotAndScattered {
    fn name(&self) -> &str {
        "hot-and-scattered"
    }

    fn next_event(&mut self) -> Option<Event> {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = self.state >> 16;
        let line = |window: u64| ((r >> 2) % (window >> 6)) << 6;
        Some(match r % 4 {
            0 => Event::load(Pc::new(0x40_1000), VirtAddr::new(Self::HOT_BASE + line(8 << 20))),
            1 => Event::load(Pc::new(0x40_2000), VirtAddr::new(Self::COLD_BASE + line(64 << 30))),
            2 => Event::store(Pc::new(0x40_2040), VirtAddr::new(Self::COLD_BASE + line(64 << 30))),
            _ => Event::Compute { ops: 1 + (r >> 44) as u32 % 4 },
        })
    }
}

/// Warms up, resets the statistics and measures, like the campaign
/// runner, with whatever policy pair [`dispatch`] builds.
struct Run {
    system: SystemConfig,
}

impl PolicyApply for Run {
    type Out = SimStats;

    fn apply<L: LltPolicy, C: LlcPolicy>(self, llt: L, llc: C) -> SimStats {
        let mut system = System::with_typed_policies(self.system, llt, llc).expect("valid config");
        system.set_sample_interval(1_000);
        let mut stream = HotAndScattered::new();
        system.run_until(&mut stream, 2_000);
        system.reset_stats();
        system.run_until(&mut stream, 40_000);
        system.stats()
    }
}

fn run(policy: AllocPolicy, fill: TlbFillPolicy, predictors: bool) -> SimStats {
    let system = SystemConfig::paper_baseline().with_page_policy(policy).with_tlb_fill(fill);
    let (tlb, llc) = if predictors {
        (TlbPolicySel::DpPred, LlcPolicySel::CbPred)
    } else {
        (TlbPolicySel::Baseline, LlcPolicySel::Baseline)
    };
    dispatch(tlb, llc, &system, Run { system })
}

/// What a pinned run must reproduce.
struct Pin {
    cycles: u64,
    doa_blocks_classified: u64,
    digest: u64,
}

fn check(policy: AllocPolicy, pins: [Pin; 4]) {
    let cases = [
        (TlbFillPolicy::Both, false),
        (TlbFillPolicy::Both, true),
        (TlbFillPolicy::L1ThenVictim, false),
        (TlbFillPolicy::L1ThenVictim, true),
    ];
    let mut mismatches = Vec::new();
    for ((fill, predictors), pin) in cases.into_iter().zip(pins) {
        let stats = run(policy, fill, predictors);
        let case = format!("{policy:?}/{fill:?}/predictors={predictors}");
        assert_eq!(stats.mem_ops, 40_000, "{case}");
        assert!(stats.doa_blocks_classified > 0, "{case}: the reverse map classified no DOA block");
        let digest = fnv1a(format!("{stats:?}").as_bytes());
        if (stats.cycles, stats.doa_blocks_classified, digest)
            != (pin.cycles, pin.doa_blocks_classified, pin.digest)
        {
            mismatches.push(format!(
                "{case}: got Pin {{ cycles: {}, doa_blocks_classified: {}, digest: {digest:#018x} }}\n\
                 {stats:#?}",
                stats.cycles, stats.doa_blocks_classified
            ));
        }
    }
    assert!(mismatches.is_empty(), "pinned statistics moved:\n{}", mismatches.join("\n"));
}

#[test]
fn uniform_1g_statistics_are_pinned() {
    check(
        AllocPolicy::Uniform(PageSize::Size1G),
        [
            Pin { cycles: 999_480, doa_blocks_classified: 9_270, digest: 0x8fef_4a19_2650_4ef5 },
            Pin { cycles: 999_480, doa_blocks_classified: 9_270, digest: 0x8fef_4a19_2650_4ef5 },
            Pin { cycles: 999_480, doa_blocks_classified: 9_270, digest: 0x7d0c_7e5a_2b1e_c263 },
            Pin { cycles: 999_480, doa_blocks_classified: 9_270, digest: 0x7d0c_7e5a_2b1e_c263 },
        ],
    );
}

#[test]
fn promote_2m_threshold_8_statistics_are_pinned() {
    check(
        AllocPolicy::Promote2M { threshold: 8 },
        [
            Pin { cycles: 1_877_934, doa_blocks_classified: 23_855, digest: 0xd165_5b51_2709_1efd },
            Pin { cycles: 1_877_768, doa_blocks_classified: 23_719, digest: 0xacd4_5f60_6482_6413 },
            Pin { cycles: 1_877_934, doa_blocks_classified: 16_315, digest: 0xa69d_247e_82b6_7dba },
            Pin { cycles: 1_877_943, doa_blocks_classified: 16_315, digest: 0xe33b_e494_ec33_3b32 },
        ],
    );
}

#[test]
fn promote_2m_threshold_64_statistics_are_pinned() {
    check(
        AllocPolicy::Promote2M { threshold: 64 },
        [
            Pin { cycles: 1_877_950, doa_blocks_classified: 23_855, digest: 0x18db_3435_0d2c_6c47 },
            Pin { cycles: 1_877_765, doa_blocks_classified: 23_703, digest: 0x0dc8_4d6c_cdaf_c65c },
            Pin { cycles: 1_877_950, doa_blocks_classified: 17_395, digest: 0x5c7e_8a80_4af3_792e },
            Pin { cycles: 1_877_959, doa_blocks_classified: 17_395, digest: 0xc448_7f5e_4078_c1a5 },
        ],
    );
}
