//! Equivalence proof for [`SetAssoc`](dpc_memsim::set_assoc::SetAssoc)'s
//! storage: its set-blocked layout (`u32` stamps and lifetimes, bitmask
//! match, one-pass fill) must behave observably identically to the naive
//! array-of-structs reference model in `common/`, which transliterates
//! the replacement-policy definitions line by line. `lazy_metadata.rs`
//! drives the same harness (`common/harness.rs`) through hit streaks.
//!
//! Every operation runs on the model and, in lockstep, on two arrays:
//! one whose payload keeps the line's lifetime (`Lived<u32>`) and a
//! lifetime-free one (`u32`). After it, [`Subjects::step`] checks every
//! observable of each array:
//!
//! * the op's own result (hit way, victim way, evicted tag, payload and,
//!   for the lifetime-keeping array,
//!   [`LineLife`](dpc_memsim::set_assoc::LineLife));
//! * the payload and lifetime of **every valid line**, by set and way;
//! * the full `iter_valid` snapshot in storage order;
//! * `valid_count`.
//!
//! Drivers:
//!
//! * **exhaustive**: every op sequence of a fixed depth over a per-tag
//!   alphabet of `lookup`, all three fill priorities, invalidation and a
//!   bare victim probe (SRRIP ages the set as a side effect of the
//!   search, so probing must match too) on the 4×4 geometry, and on 2×2
//!   deeper under LRU; the 2×2 sequences of every policy without a
//!   `High` fill run here, those with one in `lazy_metadata.rs`;
//! * **randomized**: a plain LCG stream over uniform tags that also
//!   inserts at `InsertPriority::High`, on pow2 and non-power-of-two set
//!   counts (modulo indexing), the fixed-width tag compares and victim
//!   searches (4, 8 and 16 ways) and associativities whose set blocks
//!   differ in shape (1, 3, 12 and 64 ways); `lazy_metadata.rs` runs the
//!   repeat-biased stream on the same geometries;
//! * **distant-heavy**: LCG sequences that fill mostly at
//!   `InsertPriority::Distant`, which under LRU stamps 0, so full sets
//!   hold tied least stamps and the victim must be the lowest such way.

mod common;

use common::harness::{exhaustive, has_high_fill, randomized, Op, Stream, Subjects};
use common::{lcg, RefModel, BLOCK_SHAPE_WAYS, KINDS};
use dpc_memsim::set_assoc::InsertPriority;
use dpc_types::ReplacementKind;

#[test]
fn exhaustive_2x2_all_kinds() {
    for kind in KINDS {
        exhaustive(2, 2, kind, 3, |ops| !has_high_fill(ops));
    }
}

#[test]
fn exhaustive_2x2_lru_deeper() {
    exhaustive(2, 2, ReplacementKind::Lru, 4, |_| true);
}

#[test]
fn exhaustive_4x4_all_kinds() {
    for kind in KINDS {
        exhaustive(4, 4, kind, 2, |_| true);
    }
}

#[test]
fn randomized_small_geometries() {
    for kind in KINDS {
        randomized(2, 2, kind, 20_000, 0xDEAD_BEEF, Stream::Plain);
        randomized(4, 4, kind, 20_000, 0x1234_5678, Stream::Plain);
    }
}

#[test]
fn randomized_non_pow2_sets() {
    for kind in KINDS {
        randomized(3, 2, kind, 20_000, 42, Stream::Plain);
    }
}

#[test]
fn randomized_paper_llc_geometry() {
    // 16 ways is the paper's LLC associativity — the widest fixed-width
    // tag compare and victim search; 8 sets keeps the state snapshot
    // cheap.
    for kind in KINDS {
        randomized(8, 16, kind, 10_000, 7, Stream::Plain);
    }
}

#[test]
fn randomized_block_shapes() {
    for ways in BLOCK_SHAPE_WAYS {
        for kind in KINDS {
            randomized(3, ways, kind, 4_000, 0xB10C_0000 + ways as u64, Stream::Plain);
        }
    }
}

#[test]
fn randomized_eight_way_geometry() {
    // 8 ways is the L1D, L2 and LLT associativity: the middle
    // fixed-width tag match and victim search.
    for kind in KINDS {
        randomized(8, 8, kind, 10_000, 0x8_0000, Stream::Plain);
        randomized(3, 8, kind, 10_000, 0x8_0003, Stream::Plain);
    }
}

/// Whether filling `tag` would pick its victim among tied least stamps:
/// its set is full and at least two lines share the least stamp.
fn fill_meets_a_tie(model: &RefModel, tag: u64) -> bool {
    let lines = &model.lines[model.set_of(tag)];
    if lines.iter().any(|line| !line.valid) {
        return false;
    }
    let least = lines.iter().map(|line| line.stamp).min();
    lines.iter().filter(|line| Some(line.stamp) == least).count() > 1
}

/// Mostly `Distant` fills plus enough invalidations to reopen ways: under
/// LRU every distant line stamps 0, so sets fill with tied stamps.
/// Returns how many fills met a tie.
fn distant_heavy(sets: usize, ways: usize, kind: ReplacementKind, ops: usize, seed: u64) -> usize {
    let mut subjects = Subjects::new(sets, ways, kind);
    let mut next = lcg(seed);
    let tags = (3 * sets * ways) as u64;
    let mut ties = 0;
    for _ in 0..ops {
        let tag = next() % tags;
        let op = match next() % 10 {
            0..=1 => Op::Lookup(tag),
            2..=6 => Op::Fill(tag, InsertPriority::Distant),
            7 => Op::Fill(tag, InsertPriority::Normal),
            8 => Op::Invalidate(tag),
            _ => Op::Victim(tag),
        };
        if matches!(op, Op::Fill(..)) && fill_meets_a_tie(&subjects.model, tag) {
            ties += 1;
        }
        subjects.step(op, &[]);
    }
    ties
}

#[test]
fn distant_heavy_streams_break_ties_by_way() {
    for ways in [3usize, 4, 8, 16] {
        let ties = distant_heavy(4, ways, ReplacementKind::Lru, 10_000, 0xD157 + ways as u64);
        assert!(ties > 100, "{ways}-way LRU: only {ties} fills met tied stamps");
        // FIFO stamps every insertion with the clock, so it never ties;
        // the same stream checks its victim order all the same.
        distant_heavy(4, ways, ReplacementKind::Fifo, 10_000, 0xF1F0 + ways as u64);
    }
}
