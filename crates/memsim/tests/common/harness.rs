//! The one SetAssoc-vs-[`RefModel`] harness both equivalence suites
//! drive: the operation set, the per-step check and the exhaustive and
//! LCG drivers. Every step runs on the model and on both kinds of array
//! a level can be: one whose payload keeps the line's lifetime
//! (`SetAssoc<Lived<u32>>`, the LLT's and the LLC's kind) and a
//! lifetime-free one (`SetAssoc<u32>`, the kind of the L1 levels and the
//! PWCs).

use super::{lcg, RefEvicted, RefModel};
use dpc_memsim::set_assoc::{Evicted, InsertPriority, Line, LineLife, Lived, SetAssoc};
use dpc_types::ReplacementKind;

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Lookup(u64),
    Fill(u64, InsertPriority),
    Invalidate(u64),
    /// Bare victim probe: reads (and under SRRIP ages) the set's stamps.
    Victim(u64),
}

/// A payload kind the harness checks an array of.
pub trait Kept: Line + Default {
    /// Whether the kind keeps the line's lifetime.
    const LIVES: bool;
    /// The payload a fill of model payload `payload` installs.
    fn wrap(payload: u32) -> Self;
    /// The model payload and, for a lifetime-keeping kind, the lifetime.
    fn parts(&self) -> (u32, Option<LineLife>);
}

impl Kept for u32 {
    const LIVES: bool = false;
    fn wrap(payload: u32) -> Self {
        payload
    }
    fn parts(&self) -> (u32, Option<LineLife>) {
        (*self, None)
    }
}

impl Kept for Lived<u32> {
    const LIVES: bool = true;
    fn wrap(payload: u32) -> Self {
        Lived::new(payload)
    }
    fn parts(&self) -> (u32, Option<LineLife>) {
        (**self, Some(self.life()))
    }
}

/// One line as an array of kind `P` shows it: (tag, life, payload), the
/// life `None` for a lifetime-free kind.
type Seen = (u64, Option<LineLife>, u32);

/// What an op returned: a hit or victim way, or the line `L` that left.
#[derive(Debug, PartialEq)]
enum Outcome<L> {
    Way(Option<usize>),
    Left(Option<L>),
}

/// A model line as an array of kind `P` must show it.
fn seen<P: Kept>((tag, life, payload): RefEvicted) -> Seen {
    (tag, P::LIVES.then_some(life), payload)
}

/// The model and the two array kinds it is checked against, stepped in
/// lockstep.
pub struct Subjects {
    pub model: RefModel,
    lived: SetAssoc<Lived<u32>>,
    plain: SetAssoc<u32>,
}

impl Subjects {
    pub fn new(sets: usize, ways: usize, kind: ReplacementKind) -> Self {
        Subjects {
            model: RefModel::new(sets, ways, kind),
            lived: SetAssoc::new(sets, ways, kind),
            plain: SetAssoc::new(sets, ways, kind),
        }
    }

    /// Applies `op` to the model and both arrays and asserts every
    /// observable of each array matches ([`check`]).
    pub fn step(&mut self, op: Op, trace: &[Op]) {
        // Payload derived from the clocks so refills are distinguishable.
        let payload = match op {
            Op::Fill(tag, _) => (tag as u32) ^ ((self.model.seq as u32) << 8),
            _ => 0,
        };
        let want = match op {
            Op::Lookup(tag) => Outcome::Way(self.model.lookup(tag, tag)),
            Op::Fill(tag, priority) => Outcome::Left(self.model.fill(tag, tag, payload, priority)),
            Op::Invalidate(tag) => Outcome::Left(self.model.invalidate(tag, tag)),
            Op::Victim(addr) => Outcome::Way(Some(self.model.victim_way(addr))),
        };
        check(&mut self.lived, &self.model, op, payload, &want, trace);
        check(&mut self.plain, &self.model, op, payload, &want, trace);
    }
}

/// Applies `op` (a fill installs `payload`) to `sa` and asserts every
/// observable matches the model, which has already taken the op: the
/// op's own result (`want`, its lifetime dropped for a lifetime-free
/// kind), the payload and lifetime of each valid line by set and way,
/// the complete valid-line state and `valid_count`.
fn check<P: Kept>(
    sa: &mut SetAssoc<P>,
    model: &RefModel,
    op: Op,
    payload: u32,
    want: &Outcome<RefEvicted>,
    trace: &[Op],
) {
    let kind = if P::LIVES { "lived" } else { "plain" };
    let left = |e: Option<Evicted<P>>| {
        Outcome::Left(e.map(|e| {
            let (payload, life) = e.payload.parts();
            (e.tag, life, payload)
        }))
    };
    let got = match op {
        Op::Lookup(tag) => Outcome::Way(sa.lookup(tag, tag)),
        Op::Fill(tag, priority) => left(sa.fill(tag, tag, P::wrap(payload), priority)),
        Op::Invalidate(tag) => left(sa.invalidate(tag, tag)),
        Op::Victim(addr) => Outcome::Way(Some(sa.victim_way(addr))),
    };
    let want = match *want {
        Outcome::Way(way) => Outcome::Way(way),
        Outcome::Left(line) => Outcome::Left(line.map(seen::<P>)),
    };
    assert_eq!(got, want, "{kind} {op:?} after {trace:?}");
    for (set, lines) in model.lines.iter().enumerate() {
        for (way, line) in lines.iter().enumerate().filter(|(_, line)| line.valid) {
            let (payload, life) = sa.payload(set as u64, way).parts();
            assert_eq!(
                (payload, life),
                (line.payload, P::LIVES.then_some(line.life)),
                "{kind} set {set} way {way} after {op:?} (history {trace:?})"
            );
        }
    }
    let got: Vec<Seen> = sa
        .iter_valid()
        .map(|(tag, line)| {
            let (payload, life) = line.parts();
            (tag, life, payload)
        })
        .collect();
    let want: Vec<Seen> = model.snapshot().into_iter().map(seen::<P>).collect();
    assert_eq!(got, want, "{kind} state diverged after {op:?} (history {trace:?})");
    assert_eq!(sa.valid_count(), want.len(), "{kind} valid_count after {op:?}");
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
        let mut subjects = Subjects::new(sets, ways, kind);
        for (i, &op) in ops.iter().enumerate() {
            subjects.step(op, &ops[..i]);
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
    let mut subjects = Subjects::new(sets, ways, kind);
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
        subjects.step(op, &[]);
    }
}
