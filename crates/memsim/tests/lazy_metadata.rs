//! Hit-statistics half of the
//! [`SetAssoc`](dpc_memsim::set_assoc::SetAssoc) equivalence proof. A hit
//! stores its promotion at once: the LRU stamp or SRRIP RRPV 0 in its
//! set block and, for a `Lived` payload, `hits += 1` and `last_hit_seq`
//! in the line's record (DESIGN.md §16.1 records the removed lazy buffer
//! this file is named after). These drivers pit same-line hit streaks
//! against the reference model in `common/`, through the harness
//! `soa_equivalence.rs` drives too, so `Subjects::step` checks after
//! every operation, on a lifetime-keeping and a lifetime-free array
//! alike, the op's own result, the payload and lifetime of every valid
//! line, the full `iter_valid` snapshot and `valid_count`.
//!
//! Drivers:
//!
//! * **exhaustive**: every op sequence of a fixed depth over the per-tag
//!   alphabet on 1×2, and the 2×2 sequences that insert at
//!   `InsertPriority::High` at least once (`soa_equivalence.rs` runs the
//!   rest);
//! * **hit runs**: same-line hit streaks, back to back or aged by hits to
//!   the line's set-mates between its own hits, cut by each metadata
//!   reader in turn (victim probe, fill, invalidate, or just the
//!   per-step reads);
//! * **randomized**: an LCG stream that half the time reuses the previous
//!   tag, so one line takes long hit streaks, on the geometries of
//!   `soa_equivalence.rs`'s plain stream.

mod common;

use common::harness::{exhaustive, has_high_fill, randomized, Op, Stream, Subjects};
use common::{BLOCK_SHAPE_WAYS, KINDS};
use dpc_memsim::set_assoc::InsertPriority;

#[test]
fn exhaustive_1x2_all_kinds() {
    for kind in KINDS {
        exhaustive(1, 2, kind, 4, |_| true);
    }
}

#[test]
fn exhaustive_2x2_all_kinds() {
    for kind in KINDS {
        exhaustive(2, 2, kind, 3, has_high_fill);
    }
}

/// Same-line hit streaks of every length up to twice the associativity,
/// each cut by every metadata reader in turn: the whole streak must show
/// in the line's statistics and stamp, with the last hit's clock values,
/// whichever reader looks first. An aged streak hits every set-mate of
/// the line before each of the line's hits after the first, so a stamp
/// left at an earlier hit would make the line the LRU victim.
#[test]
fn hit_runs_cut_by_every_reader() {
    #[derive(Clone, Copy)]
    enum Streak {
        BackToBack,
        Aged,
    }
    #[derive(Clone, Copy)]
    enum Cut {
        Victim,
        Fill,
        Invalidate,
        Nothing,
    }
    for kind in KINDS {
        for ways in [2usize, 4] {
            // Two sets: line 2 shares set 0 with the other even tags.
            let mates: Vec<u64> =
                (0..(2 * ways) as u64).filter(|&t| t % 2 == 0 && t != 2).collect();
            for streak in 1..=(2 * ways) {
                for shape in [Streak::BackToBack, Streak::Aged] {
                    for cut in [Cut::Victim, Cut::Fill, Cut::Invalidate, Cut::Nothing] {
                        let mut subjects = Subjects::new(2, ways, kind);
                        let mut trace = Vec::new();
                        let mut run = |op: Op| {
                            subjects.step(op, &trace);
                            trace.push(op);
                        };
                        // Fill both sets to capacity so victim searches
                        // and fills read real stamps, not the invalid-way
                        // shortcut.
                        for tag in 0..(2 * ways) as u64 {
                            run(Op::Fill(tag, InsertPriority::Normal));
                        }
                        // The streak: repeated hits to one line.
                        for i in 0..streak {
                            if matches!(shape, Streak::Aged) && i > 0 {
                                for &mate in &mates {
                                    run(Op::Lookup(mate));
                                }
                            }
                            run(Op::Lookup(2));
                        }
                        // The cut: one reader observes the streak's effect.
                        run(match cut {
                            Cut::Victim => Op::Victim(2),
                            Cut::Fill => Op::Fill(2 * ways as u64 + 2, InsertPriority::Normal),
                            Cut::Invalidate => Op::Invalidate(2),
                            // `step` itself reads every line; follow
                            // with a miss so unrelated clocks move on.
                            Cut::Nothing => Op::Lookup(1000),
                        });
                        // And one fill into the streak's set afterwards:
                        // replacement order must have absorbed the streak
                        // identically.
                        run(Op::Fill(2 * ways as u64 + 8, InsertPriority::Normal));
                    }
                }
            }
        }
    }
}

#[test]
fn randomized_small_geometries() {
    for kind in KINDS {
        randomized(2, 2, kind, 20_000, 0xFEED_FACE, Stream::RepeatBiased);
        randomized(4, 4, kind, 20_000, 0x0BAD_CAFE, Stream::RepeatBiased);
    }
}

#[test]
fn randomized_non_pow2_sets() {
    for kind in KINDS {
        randomized(3, 2, kind, 20_000, 271_828, Stream::RepeatBiased);
    }
}

#[test]
fn randomized_eight_way_geometry() {
    // The L1D, L2 and LLT associativity.
    for kind in KINDS {
        randomized(8, 8, kind, 10_000, 0x8_8888, Stream::RepeatBiased);
        randomized(3, 8, kind, 10_000, 0x8_8883, Stream::RepeatBiased);
    }
}

#[test]
fn randomized_paper_llc_geometry() {
    // 16 ways is the paper's LLC associativity; 8 sets keeps the
    // per-op snapshot cheap.
    for kind in KINDS {
        randomized(8, 16, kind, 10_000, 31_337, Stream::RepeatBiased);
    }
}

#[test]
fn randomized_block_shapes() {
    for ways in BLOCK_SHAPE_WAYS {
        for kind in KINDS {
            randomized(3, ways, kind, 4_000, 0x5EED_0000 + ways as u64, Stream::RepeatBiased);
        }
    }
}
