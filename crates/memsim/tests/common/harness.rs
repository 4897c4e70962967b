//! The one SetAssoc-vs-[`RefModel`] harness both equivalence suites
//! drive: the operation set, the per-step check and the exhaustive and
//! LCG drivers.

use super::{evicted_parts, lcg, RefModel};
use dpc_memsim::set_assoc::{InsertPriority, LineLife, SetAssoc};
use dpc_types::ReplacementKind;

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Lookup(u64),
    Fill(u64, InsertPriority),
    Invalidate(u64),
    /// Bare victim probe: reads (and under SRRIP ages) the set's stamps.
    Victim(u64),
}

/// Applies `op` to both implementations and asserts every observable
/// matches: the op's own result, `life_of` of each valid line, then the
/// complete valid-line state.
pub fn step(sa: &mut SetAssoc<u32>, model: &mut RefModel, op: Op, trace: &[Op]) {
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

/// Whether `ops` inserts at `InsertPriority::High` at least once.
pub fn has_high_fill(ops: &[Op]) -> bool {
    ops.iter().any(|op| matches!(op, Op::Fill(_, InsertPriority::High)))
}

/// Every sequence of `depth` operations drawn from the per-tag alphabet
/// (lookup, the three fill priorities, invalidate, victim probe) that
/// `keep` accepts.
pub fn exhaustive(
    sets: usize,
    ways: usize,
    kind: ReplacementKind,
    depth: u32,
    keep: fn(&[Op]) -> bool,
) {
    let mut alphabet = Vec::new();
    // 2× oversubscription: every set sees twice as many tags as it has ways.
    for tag in 0..(2 * sets * ways) as u64 {
        alphabet.push(Op::Lookup(tag));
        alphabet.push(Op::Fill(tag, InsertPriority::High));
        alphabet.push(Op::Fill(tag, InsertPriority::Normal));
        alphabet.push(Op::Fill(tag, InsertPriority::Distant));
        alphabet.push(Op::Invalidate(tag));
        alphabet.push(Op::Victim(tag));
    }
    let n = alphabet.len();
    let total = n.pow(depth);
    let mut ops = Vec::with_capacity(depth as usize);
    for mut code in 0..total {
        ops.clear();
        for _ in 0..depth {
            ops.push(alphabet[code % n]);
            code /= n;
        }
        if !keep(&ops) {
            continue;
        }
        let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways, kind);
        let mut model = RefModel::new(sets, ways, kind);
        for (i, &op) in ops.iter().enumerate() {
            step(&mut sa, &mut model, op, &ops[..i]);
        }
    }
}

/// The two LCG op streams of [`randomized`].
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Uniform tags over every op, `High` insertions included.
    Plain,
    /// Half the time the previous tag again, so one line takes long hit
    /// streaks.
    RepeatBiased,
}

/// A long pseudo-random `stream` of ops on one geometry.
pub fn randomized(
    sets: usize,
    ways: usize,
    kind: ReplacementKind,
    ops: usize,
    seed: u64,
    stream: Stream,
) {
    let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways, kind);
    let mut model = RefModel::new(sets, ways, kind);
    let mut next = lcg(seed);
    let tags = (3 * sets * ways) as u64;
    let mut prev_tag = 0u64;
    for _ in 0..ops {
        let op = match stream {
            Stream::Plain => {
                let tag = next() % tags;
                match next() % 8 {
                    0..=2 => Op::Lookup(tag),
                    3 => Op::Fill(tag, InsertPriority::Normal),
                    4 => Op::Fill(tag, InsertPriority::Distant),
                    5 => Op::Fill(tag, InsertPriority::High),
                    6 => Op::Invalidate(tag),
                    _ => Op::Victim(tag),
                }
            }
            Stream::RepeatBiased => {
                let tag = if next().is_multiple_of(2) { prev_tag } else { next() % tags };
                prev_tag = tag;
                match next() % 10 {
                    0..=5 => Op::Lookup(tag),
                    6 => Op::Fill(tag, InsertPriority::Normal),
                    7 => Op::Fill(tag, InsertPriority::Distant),
                    8 => Op::Invalidate(tag),
                    _ => Op::Victim(tag),
                }
            }
        };
        step(&mut sa, &mut model, op, &[]);
    }
}
