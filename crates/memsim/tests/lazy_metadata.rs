//! Behavior-preservation proof for the lazy replacement metadata
//! (DESIGN.md §16): [`SetAssoc`] defers hit-time column stores (lifetime
//! stats, LRU stamp, SRRIP promotion) into a one-entry coalescing buffer
//! and applies them only when a victim search, fill, invalidation, or
//! set-view pass actually reads the metadata. This suite pits the lazy
//! implementation against the *eager* reference model in `common/`,
//! which performs every store at hit time — the pre-lazy semantics,
//! transliterated — and asserts every observable after every operation:
//!
//! * the op's own result (hit way, evicted tag/payload/[`LineLife`]);
//! * `life_of` of **every valid line** (forces the `&self` merge path);
//! * the full `iter_valid` snapshot in storage order;
//! * `valid_count`.
//!
//! Three drivers:
//!
//! * **exhaustive**: every op sequence of a fixed depth over a per-tag
//!   alphabet that includes both hit flavors (`lookup` and
//!   `peek`+`commit_hit` — the miss path's entry point into the lazy
//!   buffer) for LRU, SRRIP and FIFO;
//! * **hit runs**: long same-line hit streaks — the case the buffer
//!   coalesces — cut by each metadata reader in turn (victim probe,
//!   fill, invalidate, `life_of`), so every flush point is crossed with
//!   a maximally stale buffer;
//! * **randomized**: LCG sequences biased toward repeating the previous
//!   tag (so the buffer stays populated across many ops) on pow2,
//!   non-pow2, 8-way and paper-LLC geometries, and on associativities
//!   whose set blocks differ in shape (1, 3, 12 and 64 ways).

mod common;

use common::{evicted_parts, lcg, RefModel, BLOCK_SHAPE_WAYS, KINDS};
use dpc_memsim::set_assoc::{InsertPriority, LineLife, SetAssoc};
use dpc_types::ReplacementKind;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Hit path #1: a full lookup.
    Lookup(u64),
    /// Hit path #2: peek + commit_hit / commit_miss — how the
    /// probe-then-commit miss path feeds the lazy buffer.
    Commit(u64),
    Fill(u64, InsertPriority),
    Invalidate(u64),
    /// Bare victim probe: reads (and under SRRIP mutates) the metadata
    /// columns, forcing a flush of whatever is buffered.
    Victim(u64),
}

/// Applies `op` to the lazy array and the eager model and asserts every
/// observable matches, including `life_of` of each valid line (the merge
/// path a buffered promotion must survive).
fn step(sa: &mut SetAssoc<u32>, model: &mut RefModel, op: Op, trace: &[Op]) {
    match op {
        Op::Lookup(tag) => {
            assert_eq!(sa.lookup(tag, tag), model.lookup(tag, tag), "lookup {tag} after {trace:?}");
        }
        Op::Commit(tag) => {
            let got = sa.peek(tag, tag);
            assert_eq!(got, model.peek(tag, tag), "peek {tag} after {trace:?}");
            match got {
                Some(way) => {
                    sa.commit_hit(tag, way);
                    model.commit_hit(tag, way);
                }
                None => {
                    sa.commit_miss();
                    model.commit_miss();
                }
            }
        }
        Op::Fill(tag, priority) => {
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
    // Per-line lifetime reads go through the merge path while the buffer
    // may still hold this op's promotion.
    for set in 0..model.sets {
        for way in 0..model.ways {
            if model.lines[set][way].valid {
                let addr = set as u64;
                assert_eq!(
                    sa.life_of(addr, way),
                    model.life_of(addr, way),
                    "life_of set {set} way {way} after {op:?} (history {trace:?})"
                );
            }
        }
    }
    let got: Vec<(u64, LineLife, u32)> =
        sa.iter_valid().map(|line| (line.tag(), line.life(), *line.payload)).collect();
    assert_eq!(got, model.snapshot(), "state diverged after {op:?} (history {trace:?})");
    assert_eq!(sa.valid_count(), model.snapshot().len());
}

/// Every sequence of `depth` operations drawn from the per-tag alphabet —
/// both hit flavors, two fill priorities, invalidate, victim probe.
fn exhaustive(sets: usize, ways: usize, kind: ReplacementKind, depth: u32) {
    let mut alphabet = Vec::new();
    // 2× oversubscription: every set sees twice as many tags as it has ways.
    for tag in 0..(2 * sets * ways) as u64 {
        alphabet.push(Op::Lookup(tag));
        alphabet.push(Op::Commit(tag));
        alphabet.push(Op::Fill(tag, InsertPriority::Normal));
        alphabet.push(Op::Fill(tag, InsertPriority::Distant));
        alphabet.push(Op::Invalidate(tag));
        alphabet.push(Op::Victim(tag));
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
fn exhaustive_1x2_all_kinds() {
    for kind in KINDS {
        exhaustive(1, 2, kind, 4);
    }
}

#[test]
fn exhaustive_2x2_all_kinds() {
    for kind in KINDS {
        exhaustive(2, 2, kind, 3);
    }
}

/// Same-line hit streaks of every length up to twice the associativity,
/// each cut by every metadata reader in turn. This is the coalescing case:
/// the buffer accumulates the whole streak and must apply it exactly once,
/// with the last hit's clock values, whichever reader forces the flush.
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
                    // fills read real metadata, not the invalid-way
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
                        // `step` itself reads life_of/iter_valid, so even
                        // "nothing" checks the merge path; follow with a
                        // miss so the buffer outlives unrelated clocks.
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

/// LCG sequences biased toward repeating the previous tag, so the buffer
/// coalesces across many consecutive ops before each flush.
fn randomized(sets: usize, ways: usize, kind: ReplacementKind, ops: usize, seed: u64) {
    let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways, kind);
    let mut model = RefModel::new(sets, ways, kind);
    let mut next = lcg(seed);
    let tags = (3 * sets * ways) as u64;
    let mut prev_tag = 0u64;
    for _ in 0..ops {
        // Half the time, stay on the previous tag: long same-line hit
        // runs are exactly what the lazy buffer coalesces.
        let tag = if next().is_multiple_of(2) { prev_tag } else { next() % tags };
        prev_tag = tag;
        let op = match next() % 10 {
            0..=3 => Op::Lookup(tag),
            4..=5 => Op::Commit(tag),
            6 => Op::Fill(tag, InsertPriority::Normal),
            7 => Op::Fill(tag, InsertPriority::Distant),
            8 => Op::Invalidate(tag),
            _ => Op::Victim(tag),
        };
        step(&mut sa, &mut model, op, &[]);
    }
}

#[test]
fn randomized_small_geometries() {
    for kind in KINDS {
        randomized(2, 2, kind, 20_000, 0xFEED_FACE);
        randomized(4, 4, kind, 20_000, 0x0BAD_CAFE);
    }
}

#[test]
fn randomized_non_pow2_sets() {
    for kind in KINDS {
        randomized(3, 2, kind, 20_000, 271_828);
    }
}

#[test]
fn randomized_eight_way_geometry() {
    // The L1D, L2 and LLT associativity.
    for kind in KINDS {
        randomized(8, 8, kind, 10_000, 0x8_8888);
    }
}

#[test]
fn randomized_paper_llc_geometry() {
    // 16 ways is the paper's LLC associativity; 8 sets keeps the
    // per-op snapshot cheap.
    for kind in KINDS {
        randomized(8, 16, kind, 10_000, 31_337);
    }
}

#[test]
fn randomized_block_shapes() {
    for ways in BLOCK_SHAPE_WAYS {
        for kind in KINDS {
            randomized(3, ways, kind, 4_000, 0x5EED_0000 + ways as u64);
        }
    }
}
