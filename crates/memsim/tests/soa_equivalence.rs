//! Equivalence proof for the storage hot path: [`SetAssoc`] (set-blocked
//! storage with `u32` stamps and lifetimes, bitmask match, fused
//! bookkeeping) must behave observably identically to the naive
//! array-of-structs reference model in `common/`, which transliterates
//! the replacement-policy definitions line by line.
//!
//! Two drivers cross-check every observable after every operation —
//! returned way / evicted line (tag, payload, *and* [`LineLife`] stats),
//! plus the full valid-line contents in storage order:
//!
//! * **exhaustive**: every operation sequence of a fixed depth over a
//!   small alphabet (lookup / fill-normal / fill-distant / invalidate per
//!   tag) on the 2×2 and 4×4 geometries;
//! * **randomized**: long LCG-driven sequences that additionally exercise
//!   `InsertPriority::High`, bare `victim_way` probes (SRRIP aging is a
//!   side effect of the search, so probing must match too), a
//!   non-power-of-two set count (modulo indexing), the fixed-width
//!   victim searches (4, 8 and 16 ways) and associativities whose set
//!   blocks differ in shape (1, 3, 12 and 64 ways);
//! * **distant-heavy**: LCG sequences that fill mostly at
//!   `InsertPriority::Distant`, which under LRU stamps 0, so full sets
//!   hold tied least stamps and the victim must be the lowest such way.

mod common;

use common::{evicted_parts, lcg, RefModel, BLOCK_SHAPE_WAYS, KINDS};
use dpc_memsim::set_assoc::{InsertPriority, LineLife, SetAssoc};
use dpc_types::ReplacementKind;

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup(u64),
    Fill(u64, InsertPriority),
    Invalidate(u64),
    Victim(u64),
}

/// Applies `op` to both implementations and asserts every observable
/// matches: the op's own result, then the complete valid-line state.
fn step(sa: &mut SetAssoc<u32>, model: &mut RefModel, op: Op, trace: &[Op]) {
    match op {
        Op::Lookup(tag) => {
            assert_eq!(sa.lookup(tag, tag), model.lookup(tag, tag), "lookup {tag} after {trace:?}");
        }
        Op::Fill(tag, priority) => {
            // Payload derived from the clocks so refills are distinguishable.
            let payload = (tag as u32) ^ ((model.seq as u32) << 8);
            let got = sa.fill(tag, tag, payload, priority);
            let want = model.fill(tag, tag, payload, priority);
            assert_eq!(
                evicted_parts(&got),
                evicted_parts(&want),
                "fill {tag} {priority:?} after {trace:?}"
            );
        }
        Op::Invalidate(tag) => {
            let got = sa.invalidate(tag, tag);
            let want = model.invalidate(tag, tag);
            assert_eq!(
                evicted_parts(&got),
                evicted_parts(&want),
                "invalidate {tag} after {trace:?}"
            );
        }
        Op::Victim(addr) => {
            assert_eq!(
                sa.victim_way(addr),
                model.victim_way(addr),
                "victim {addr} after {trace:?}"
            );
        }
    }
    let got: Vec<(u64, LineLife, u32)> =
        sa.iter_valid().map(|line| (line.tag(), line.life(), *line.payload)).collect();
    assert_eq!(got, model.snapshot(), "state diverged after {op:?} (history {trace:?})");
    assert_eq!(sa.valid_count(), model.snapshot().len());
}

/// Every sequence of `depth` operations drawn from the per-tag alphabet
/// {lookup, fill-normal, fill-distant, invalidate}.
fn exhaustive(sets: usize, ways: usize, kind: ReplacementKind, depth: u32) {
    let mut alphabet = Vec::new();
    // 2× oversubscription: every set sees twice as many tags as it has ways.
    for tag in 0..(2 * sets * ways) as u64 {
        alphabet.push(Op::Lookup(tag));
        alphabet.push(Op::Fill(tag, InsertPriority::Normal));
        alphabet.push(Op::Fill(tag, InsertPriority::Distant));
        alphabet.push(Op::Invalidate(tag));
    }
    let n = alphabet.len();
    let total = n.pow(depth);
    let mut trace = Vec::with_capacity(depth as usize);
    for mut code in 0..total {
        let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways, kind);
        let mut model = RefModel::new(sets, ways, kind);
        trace.clear();
        for _ in 0..depth {
            let op = alphabet[code % n];
            code /= n;
            step(&mut sa, &mut model, op, &trace);
            trace.push(op);
        }
    }
}

#[test]
fn exhaustive_2x2_all_kinds() {
    for kind in KINDS {
        exhaustive(2, 2, kind, 3);
    }
}

#[test]
fn exhaustive_2x2_lru_deeper() {
    exhaustive(2, 2, ReplacementKind::Lru, 4);
}

#[test]
fn exhaustive_4x4_all_kinds() {
    for kind in KINDS {
        exhaustive(4, 4, kind, 2);
    }
}

/// Long pseudo-random sequences over the full op set, including `High`
/// insertions and bare victim probes, on pow2 and non-pow2 geometries.
fn randomized(sets: usize, ways: usize, kind: ReplacementKind, ops: usize, seed: u64) {
    let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways, kind);
    let mut model = RefModel::new(sets, ways, kind);
    let mut next = lcg(seed);
    let tags = (3 * sets * ways) as u64;
    for _ in 0..ops {
        let tag = next() % tags;
        let op = match next() % 8 {
            0..=2 => Op::Lookup(tag),
            3 => Op::Fill(tag, InsertPriority::Normal),
            4 => Op::Fill(tag, InsertPriority::Distant),
            5 => Op::Fill(tag, InsertPriority::High),
            6 => Op::Invalidate(tag),
            _ => Op::Victim(tag),
        };
        step(&mut sa, &mut model, op, &[]);
    }
}

#[test]
fn randomized_small_geometries() {
    for kind in KINDS {
        randomized(2, 2, kind, 20_000, 0xDEAD_BEEF);
        randomized(4, 4, kind, 20_000, 0x1234_5678);
    }
}

#[test]
fn randomized_non_pow2_sets() {
    for kind in KINDS {
        randomized(3, 2, kind, 20_000, 42);
    }
}

#[test]
fn randomized_paper_llc_geometry() {
    // 16 ways is the paper's LLC associativity — the widest fixed-width
    // match_mask specialization; 8 sets keeps the state snapshot cheap.
    for kind in KINDS {
        randomized(8, 16, kind, 10_000, 7);
    }
}

#[test]
fn randomized_block_shapes() {
    for ways in BLOCK_SHAPE_WAYS {
        for kind in KINDS {
            randomized(3, ways, kind, 4_000, 0xB10C_0000 + ways as u64);
        }
    }
}

#[test]
fn randomized_eight_way_geometry() {
    // 8 ways is the L1D, L2 and LLT associativity: the middle
    // fixed-width tag match and victim search.
    for kind in KINDS {
        randomized(8, 8, kind, 10_000, 0x8_0000);
        randomized(3, 8, kind, 10_000, 0x8_0003);
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
    let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways, kind);
    let mut model = RefModel::new(sets, ways, kind);
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
        if matches!(op, Op::Fill(..)) && fill_meets_a_tie(&model, tag) {
            ties += 1;
        }
        step(&mut sa, &mut model, op, &[]);
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
