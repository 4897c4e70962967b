//! The array-of-structs reference model the equivalence suites
//! (`soa_equivalence.rs`, `lazy_metadata.rs`) pit
//! [`SetAssoc`](dpc_memsim::set_assoc::SetAssoc) against, and in
//! [`harness`] the one operation set, per-step check and driver set they
//! share. The model transliterates the replacement-policy definitions
//! line by line: nested `Vec`s, linear scans, `u64` clocks, every hit
//! stored at hit time. It keeps every line's lifetime; the harness
//! compares it with an array that keeps lifetimes and with one that
//! does not. Written for obviousness, not speed.

// Each suite drives a different subset of the harness.
#![allow(dead_code)]

pub mod harness;

use dpc_memsim::set_assoc::{InsertPriority, LineLife, RRPV_LONG, RRPV_MAX};
use dpc_types::ReplacementKind;

pub const KINDS: [ReplacementKind; 3] =
    [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Fifo];

/// One line: every replacement-state field inline.
#[derive(Clone, Copy, Default)]
pub struct RefLine {
    pub valid: bool,
    pub tag: u64,
    pub stamp: u64,
    pub rrpv: u8,
    pub life: LineLife,
    pub payload: u32,
}

/// A line that left the model: (tag, life, payload).
pub type RefEvicted = (u64, LineLife, u32);

/// The specification a `SetAssoc` of `u32` payloads must be
/// indistinguishable from.
pub struct RefModel {
    pub sets: usize,
    pub ways: usize,
    pub kind: ReplacementKind,
    pub lines: Vec<Vec<RefLine>>,
    pub tick: u64,
    pub seq: u64,
}

impl RefModel {
    pub fn new(sets: usize, ways: usize, kind: ReplacementKind) -> Self {
        RefModel {
            sets,
            ways,
            kind,
            lines: vec![vec![RefLine::default(); ways]; sets],
            tick: 0,
            seq: 0,
        }
    }

    pub fn set_of(&self, addr: u64) -> usize {
        (addr % self.sets as u64) as usize
    }

    pub fn peek(&self, addr: u64, tag: u64) -> Option<usize> {
        let set = self.set_of(addr);
        (0..self.ways).find(|&w| {
            let line = &self.lines[set][w];
            line.valid && line.tag == tag
        })
    }

    pub fn lookup(&mut self, addr: u64, tag: u64) -> Option<usize> {
        self.seq += 1;
        let way = self.peek(addr, tag)?;
        self.tick += 1;
        let (tick, seq) = (self.tick, self.seq);
        let set = self.set_of(addr);
        let line = &mut self.lines[set][way];
        line.life.hits += 1;
        line.life.last_hit_seq = seq;
        match self.kind {
            ReplacementKind::Lru => line.stamp = tick,
            ReplacementKind::Srrip => line.rrpv = 0,
            ReplacementKind::Fifo => {}
        }
        Some(way)
    }

    pub fn victim_way(&mut self, addr: u64) -> usize {
        let set = self.set_of(addr);
        if let Some(way) = (0..self.ways).find(|&w| !self.lines[set][w].valid) {
            return way;
        }
        match self.kind {
            ReplacementKind::Lru | ReplacementKind::Fifo => {
                // First-encountered minimum stamp.
                let mut best = 0;
                for way in 1..self.ways {
                    if self.lines[set][way].stamp < self.lines[set][best].stamp {
                        best = way;
                    }
                }
                best
            }
            ReplacementKind::Srrip => loop {
                if let Some(way) = (0..self.ways).find(|&w| self.lines[set][w].rrpv >= RRPV_MAX) {
                    return way;
                }
                for line in &mut self.lines[set] {
                    line.rrpv += 1;
                }
            },
        }
    }

    pub fn fill_way(
        &mut self,
        addr: u64,
        way: usize,
        tag: u64,
        payload: u32,
        priority: InsertPriority,
    ) -> Option<RefEvicted> {
        self.tick += 1;
        let tick = self.tick;
        let seq = self.seq;
        let set = self.set_of(addr);
        let line = &mut self.lines[set][way];
        let evicted = line.valid.then_some((line.tag, line.life, line.payload));
        line.valid = true;
        line.tag = tag;
        line.payload = payload;
        line.life = LineLife { fill_seq: seq, last_hit_seq: seq, hits: 0 };
        match self.kind {
            ReplacementKind::Lru => {
                line.stamp = match priority {
                    InsertPriority::Normal | InsertPriority::High => tick,
                    InsertPriority::Distant => 0,
                };
            }
            ReplacementKind::Fifo => line.stamp = tick,
            ReplacementKind::Srrip => {
                line.rrpv = match priority {
                    InsertPriority::Normal => RRPV_LONG,
                    InsertPriority::Distant => RRPV_MAX,
                    InsertPriority::High => 0,
                };
            }
        }
        evicted
    }

    pub fn fill(
        &mut self,
        addr: u64,
        tag: u64,
        payload: u32,
        priority: InsertPriority,
    ) -> Option<RefEvicted> {
        let way = self.victim_way(addr);
        self.fill_way(addr, way, tag, payload, priority)
    }

    pub fn invalidate(&mut self, addr: u64, tag: u64) -> Option<RefEvicted> {
        let way = self.peek(addr, tag)?;
        let set = self.set_of(addr);
        let line = &mut self.lines[set][way];
        line.valid = false;
        Some((line.tag, line.life, line.payload))
    }

    /// All valid lines in storage order: (tag, life, payload).
    pub fn snapshot(&self) -> Vec<RefEvicted> {
        self.lines
            .iter()
            .flatten()
            .filter(|line| line.valid)
            .map(|line| (line.tag, line.life, line.payload))
            .collect()
    }
}

/// Numerical Recipes LCG: deterministic, dependency-free.
pub fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    }
}

/// Associativities whose set blocks differ in shape: 1 (a lone stamp in
/// a half-used word), 3 (the last stamp word half empty), 12 (no
/// fixed-width tag compare; the generic loop) and 64 (the validity-mask
/// ceiling).
pub const BLOCK_SHAPE_WAYS: [usize; 4] = [1, 3, 12, 64];
