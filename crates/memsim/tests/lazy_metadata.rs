//! Hit-statistics half of the [`SetAssoc`] equivalence proof. A hit
//! stores its promotion at once: `hits += 1` and `last_hit_seq` in the
//! line's record, the LRU stamp or SRRIP RRPV 0 in its set block
//! (DESIGN.md §16.1 records the removed lazy buffer this file is named
//! after). These drivers pit same-line hit streaks and the
//! probe-then-commit hit path against the reference model in `common/`,
//! through the harness `soa_equivalence.rs` drives too, so `step` checks
//! after every operation the op's own result, `life_of` of every valid
//! line, the full `iter_valid` snapshot and `valid_count`.
//!
//! Drivers:
//!
//! * **exhaustive**: every op sequence of a fixed depth over the per-tag
//!   alphabet on 1×2, and the 2×2 sequences that take the
//!   `peek` plus `commit_hit`/`commit_miss` path at least once
//!   (`soa_equivalence.rs` runs the rest);
//! * **hit runs**: same-line hit streaks through either hit path, cut by
//!   each metadata reader in turn (victim probe, fill, invalidate, or
//!   just the per-step reads);
//! * **randomized**: an LCG stream that half the time reuses the previous
//!   tag, so one line takes long hit streaks, on the geometries of
//!   `soa_equivalence.rs`'s plain stream.

mod common;

use common::harness::{exhaustive, randomized, step, uses_commit, Op, Stream};
use common::{RefModel, BLOCK_SHAPE_WAYS, KINDS};
use dpc_memsim::set_assoc::{InsertPriority, SetAssoc};

#[test]
fn exhaustive_1x2_all_kinds() {
    for kind in KINDS {
        exhaustive(1, 2, kind, 4, |_| true);
    }
}

#[test]
fn exhaustive_2x2_all_kinds() {
    for kind in KINDS {
        exhaustive(2, 2, kind, 3, uses_commit);
    }
}

/// Same-line hit streaks of every length up to twice the associativity,
/// through either hit path, each cut by every metadata reader in turn:
/// the whole streak must show in the line's statistics and stamp, with
/// the last hit's clock values, whichever reader looks first.
#[test]
fn hit_runs_cut_by_every_reader() {
    #[derive(Clone, Copy)]
    enum Cut {
        Victim,
        Fill,
        Invalidate,
        Nothing,
    }
    for kind in KINDS {
        for ways in [2usize, 4] {
            for streak in 1..=(2 * ways) {
                for (hit_op, cut) in [
                    (0, Cut::Victim),
                    (0, Cut::Fill),
                    (0, Cut::Invalidate),
                    (0, Cut::Nothing),
                    (1, Cut::Victim),
                    (1, Cut::Fill),
                    (1, Cut::Invalidate),
                    (1, Cut::Nothing),
                ] {
                    let mut sa: SetAssoc<u32> = SetAssoc::new(2, ways, kind);
                    let mut model = RefModel::new(2, ways, kind);
                    let mut trace = Vec::new();
                    // Fill both sets to capacity so victim searches and
                    // fills read real stamps, not the invalid-way
                    // shortcut.
                    for tag in 0..(2 * ways) as u64 {
                        let op = Op::Fill(tag, InsertPriority::Normal);
                        step(&mut sa, &mut model, op, &trace);
                        trace.push(op);
                    }
                    // The streak: repeated hits to one line, via lookup or
                    // the commit path.
                    for _ in 0..streak {
                        let op = if hit_op == 0 { Op::Lookup(2) } else { Op::Commit(2) };
                        step(&mut sa, &mut model, op, &trace);
                        trace.push(op);
                    }
                    // The cut: one reader observes the streak's effect.
                    let op = match cut {
                        Cut::Victim => Op::Victim(2),
                        Cut::Fill => Op::Fill(2 * ways as u64 + 2, InsertPriority::Normal),
                        Cut::Invalidate => Op::Invalidate(2),
                        // `step` itself reads life_of/iter_valid; follow
                        // with a miss so unrelated clocks move on.
                        Cut::Nothing => Op::Lookup(1000),
                    };
                    step(&mut sa, &mut model, op, &trace);
                    trace.push(op);
                    // And one fill afterwards: replacement order must have
                    // absorbed the streak identically.
                    let op = Op::Fill(2 * ways as u64 + 7, InsertPriority::Normal);
                    step(&mut sa, &mut model, op, &trace);
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
