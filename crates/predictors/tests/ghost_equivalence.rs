//! Equivalence proof for [`GhostTracker`]'s per-set rings: they must
//! count exactly as the per-set deques they replaced, which are kept
//! below, line for line, as the reference model.
//!
//! Seeded LCG streams of bypasses, fills and lookups drive both trackers
//! over set counts with and without a power of two and associativities
//! from 1 to 64 ways. After every op the test compares the lookup's
//! result, `correct`, `mispredictions`, `predictions` and
//! `resolved_correct()`. Each geometry runs a narrow tag range, where a
//! tag is often bypassed again while its first ghost is alive (so the
//! oldest-match rule is exercised), and a wide one, where most ghosts
//! expire unreferenced.

use dpc_predictors::GhostTracker;

/// The deque-based tracker the rings replaced.
mod reference {
    use std::collections::VecDeque;

    #[derive(Clone, Copy, Debug)]
    struct GhostEntry {
        tag: u64,
        birth_fills: u64,
    }

    #[derive(Clone, Debug)]
    pub struct DequeTracker {
        assoc: u64,
        sets: u64,
        ghosts: Vec<VecDeque<GhostEntry>>,
        fills: Vec<u64>,
        pub correct: u64,
        pub mispredictions: u64,
        pub predictions: u64,
    }

    impl DequeTracker {
        pub fn new(sets: u64, assoc: u64) -> Self {
            DequeTracker {
                assoc,
                sets,
                ghosts: vec![VecDeque::new(); sets as usize],
                fills: vec![0; sets as usize],
                correct: 0,
                mispredictions: 0,
                predictions: 0,
            }
        }

        fn set_of(&self, tag: u64) -> usize {
            (tag % self.sets) as usize
        }

        pub fn note_bypass(&mut self, tag: u64) {
            self.predictions += 1;
            let set = self.set_of(tag);
            self.age(set);
            let birth = self.fills[set];
            self.ghosts[set].push_back(GhostEntry { tag, birth_fills: birth });
        }

        pub fn note_fill(&mut self, tag: u64) {
            let set = self.set_of(tag);
            self.age(set);
        }

        fn age(&mut self, set: usize) {
            self.fills[set] += 1;
            let cutoff = self.fills[set];
            let assoc = self.assoc;
            let ghosts = &mut self.ghosts[set];
            while let Some(front) = ghosts.front() {
                if cutoff - front.birth_fills >= assoc {
                    ghosts.pop_front();
                    self.correct += 1;
                } else {
                    break;
                }
            }
        }

        pub fn note_lookup(&mut self, tag: u64) -> bool {
            let set = self.set_of(tag);
            if let Some(pos) = self.ghosts[set].iter().position(|g| g.tag == tag) {
                self.ghosts[set].remove(pos);
                self.mispredictions += 1;
                true
            } else {
                false
            }
        }

        pub fn resolved_correct(&self) -> u64 {
            let pending: u64 = self.ghosts.iter().map(|g| g.len() as u64).sum();
            self.correct + pending
        }

        /// Whether `tag`'s set holds it in more than one ghost.
        pub fn holds_twice(&self, tag: u64) -> bool {
            self.ghosts[self.set_of(tag)].iter().filter(|g| g.tag == tag).count() > 1
        }
    }
}

use reference::DequeTracker;

/// The sets × ways geometries under test.
const GEOMETRIES: [(u64, u64); 7] = [(1, 1), (1, 2), (5, 3), (3, 5), (2, 12), (8, 16), (1, 64)];

const OPS_PER_STREAM: usize = 20_000;

/// Knuth's MMIX LCG; the high bits are the random ones.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// Runs one seeded stream over tags `0..tag_range` through both
/// trackers, comparing every observable after every op. Returns how many
/// bypasses left a tag ghosted twice in its set.
fn run_stream(sets: u64, assoc: u64, tag_range: u64, seed: u64) -> usize {
    let mut ring = GhostTracker::new(sets, assoc);
    let mut deque = DequeTracker::new(sets, assoc);
    let mut state = seed;
    let mut doubled = 0;
    for op in 0..OPS_PER_STREAM {
        let r = lcg(&mut state);
        let tag = (r >> 4) % tag_range;
        let (name, matched) = match r % 10 {
            0..=3 => {
                ring.note_bypass(tag);
                deque.note_bypass(tag);
                doubled += usize::from(deque.holds_twice(tag));
                ("bypass", None)
            }
            4..=6 => {
                ring.note_fill(tag);
                deque.note_fill(tag);
                ("fill", None)
            }
            _ => ("lookup", Some((ring.note_lookup(tag), deque.note_lookup(tag)))),
        };
        let context =
            format!("{sets}x{assoc}, tags 0..{tag_range}, seed {seed}, op {op} ({name} {tag})");
        if let Some((ring_hit, deque_hit)) = matched {
            assert_eq!(ring_hit, deque_hit, "{context}: lookup result");
        }
        assert_eq!(ring.correct, deque.correct, "{context}: correct");
        assert_eq!(ring.mispredictions, deque.mispredictions, "{context}: mispredictions");
        assert_eq!(ring.predictions, deque.predictions, "{context}: predictions");
        assert_eq!(
            ring.resolved_correct(),
            deque.resolved_correct(),
            "{context}: resolved_correct"
        );
    }
    let context = format!("{sets}x{assoc}, tags 0..{tag_range}, seed {seed}");
    assert!(ring.correct > 0, "{context}: no ghost expired");
    assert!(ring.mispredictions > 0, "{context}: no ghost was re-referenced");
    doubled
}

#[test]
fn rings_count_exactly_as_deques() {
    for (sets, assoc) in GEOMETRIES {
        for seed in [1, 42, 0xdead_beef] {
            // Narrow: about two tags per set, so a tag is often ghosted
            // twice in its set whenever the ring holds two or more.
            let doubled = run_stream(sets, assoc, 2 * sets + 1, seed);
            if assoc >= 2 {
                assert!(doubled > 0, "{sets}x{assoc}, seed {seed}: no tag was ever ghosted twice");
            }
            // Wide: mostly distinct tags, so most ghosts expire.
            run_stream(sets, assoc, 4 * sets * assoc, seed);
        }
    }
}
