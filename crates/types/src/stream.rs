//! Compact struct-of-arrays storage for [`Event`] streams.
//!
//! The simulator is trace-driven: a workload's event stream is
//! policy-independent, so one captured stream can feed every simulation
//! of that workload. [`EventStream`] is the canonical encoding of such a
//! stream, shared by the in-memory trace store (`dpc-workloads`) and the
//! on-disk trace format (`DPCTRC2`; see `dpc_workloads::trace`).
//!
//! # Encoding
//!
//! Events are split by payload into parallel arrays (struct-of-arrays):
//! one `tag` byte per event, one `(pc, vaddr)` pair per *memory* event,
//! and one `ops` word per *compute* event. A memory access therefore
//! costs 17 bytes and a compute batch 5, with no per-record padding or
//! enum discriminant overhead, and replay touches the arrays strictly
//! sequentially — the access pattern prefetchers like best.
//!
//! | tag | payload arrays | meaning |
//! |-----|----------------|---------|
//! | 0   | `pc, vaddr`    | independent load |
//! | 1   | `pc, vaddr`    | independent store |
//! | 2   | `pc, vaddr`    | dependent load |
//! | 3   | `ops`          | compute batch |
//! | 4   | `pc, vaddr`    | dependent store |
//!
//! Tags 0–3 match the legacy `DPCTRC1` record tags; tag 4 is new — the
//! v1 format collapsed dependent stores into plain stores, which made
//! replay lossy. The struct-of-arrays arrangement is lossless.
//!
//! # Example
//!
//! ```
//! use dpc_types::stream::EventStream;
//! use dpc_types::{Event, Pc, VirtAddr, Workload};
//!
//! let mut stream = EventStream::new();
//! stream.push(Event::load(Pc::new(0x400), VirtAddr::new(0x1000)));
//! stream.push(Event::Compute { ops: 3 });
//! assert_eq!(stream.len(), 2);
//! let events: Vec<Event> = stream.iter().collect();
//! assert_eq!(events[1], Event::Compute { ops: 3 });
//! ```

use crate::workload::{Event, Workload};
use crate::{AccessKind, Pc, VirtAddr};
use std::fmt;
use std::io::{self, Read, Write};

const TAG_LOAD: u8 = 0;
const TAG_STORE: u8 = 1;
const TAG_LOAD_DEP: u8 = 2;
const TAG_COMPUTE: u8 = 3;
const TAG_STORE_DEP: u8 = 4;

/// Largest valid tag value.
const TAG_MAX: u8 = TAG_STORE_DEP;

/// A recorded [`Event`] sequence in struct-of-arrays form.
///
/// Construct with [`EventStream::push`] or one of the capture helpers,
/// read back with [`EventStream::iter`] or a [`StreamCursor`], and
/// serialize with [`EventStream::write_to`] / [`EventStream::read_from`].
///
/// Internal invariant (upheld by every constructor, including the
/// validating deserializer): the number of memory tags equals
/// `pcs.len() == vaddrs.len()`, and the number of compute tags equals
/// `ops.len()`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct EventStream {
    /// One tag per event, in stream order.
    tags: Vec<u8>,
    /// Program counter of each memory event, in stream order.
    pcs: Vec<u64>,
    /// Virtual address of each memory event, in stream order.
    vaddrs: Vec<u64>,
    /// Batch size of each compute event, in stream order.
    ops: Vec<u32>,
}

impl EventStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push(&mut self, event: Event) {
        match event {
            Event::Mem { pc, vaddr, kind, dependent } => {
                let tag = match (kind, dependent) {
                    (AccessKind::Read, false) => TAG_LOAD,
                    (AccessKind::Read, true) => TAG_LOAD_DEP,
                    (AccessKind::Write, false) => TAG_STORE,
                    (AccessKind::Write, true) => TAG_STORE_DEP,
                };
                self.tags.push(tag);
                self.pcs.push(pc.raw());
                self.vaddrs.push(vaddr.raw());
            }
            Event::Compute { ops } => {
                self.tags.push(TAG_COMPUTE);
                self.ops.push(ops);
            }
        }
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of memory events.
    pub fn mem_events(&self) -> usize {
        self.pcs.len()
    }

    /// Number of compute events.
    pub fn compute_events(&self) -> usize {
        self.ops.len()
    }

    /// Approximate heap footprint of the encoded stream in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.tags.len() + 16 * self.pcs.len() + 4 * self.ops.len()
    }

    /// Decodes the event at `cursor` and advances the cursor, or returns
    /// `None` at end of stream.
    pub fn next_from(&self, cursor: &mut StreamCursor) -> Option<Event> {
        let tag = *self.tags.get(cursor.index)?;
        let event = if tag == TAG_COMPUTE {
            let ops = *self.ops.get(cursor.compute)?;
            cursor.compute += 1;
            Event::Compute { ops }
        } else {
            let pc = Pc::new(*self.pcs.get(cursor.mem)?);
            let vaddr = VirtAddr::new(*self.vaddrs.get(cursor.mem)?);
            cursor.mem += 1;
            let (kind, dependent) = match tag {
                TAG_LOAD => (AccessKind::Read, false),
                TAG_LOAD_DEP => (AccessKind::Read, true),
                TAG_STORE => (AccessKind::Write, false),
                // The constructors only ever store tags 0..=4; anything
                // else would have been rejected by `read_from`.
                _ => (AccessKind::Write, true),
            };
            Event::Mem { pc, vaddr, kind, dependent }
        };
        cursor.index += 1;
        Some(event)
    }

    /// Decodes up to `max_events` events at `cursor` into `batch`
    /// (clearing it first), stopping early when the stream ends or when
    /// the next event would exceed a budget of `max_mem` *memory* events.
    /// Returns the number of memory events decoded; the cursor is left on
    /// the first event not decoded.
    ///
    /// The budget gate is checked *before* each event, exactly like a
    /// simulator loop of the form `while mem_ops < budget { next() }`:
    /// compute events between in-budget memory events are decoded, but
    /// nothing after the budget-th memory event is — so chunked replay of
    /// a warm-up/measure split is bit-identical to event-at-a-time
    /// replay.
    ///
    /// A tag prescan (`classify_tags`) finds the chunk boundary (window
    /// end or memory budget) column-wise, then the payload columns are
    /// decoded through
    /// pre-sliced windows with no per-event end-of-array checks. The
    /// differential tests below hold it to the per-event
    /// [`next_from`](Self::next_from) decoder.
    pub fn decode_chunk(
        &self,
        cursor: &mut StreamCursor,
        batch: &mut EventBatch,
        max_events: usize,
        max_mem: u64,
    ) -> u64 {
        batch.events.clear();
        let Some(tags) = self.tags.get(cursor.index..) else { return 0 };
        let window = tags.len().min(max_events);
        let (take, mem_take) = classify_tags(&tags[..window], TAG_COMPUTE, max_mem);
        debug_assert!(take <= window);
        let compute_take = take - mem_take as usize;
        // The struct invariant (mem tags ⇔ pcs/vaddrs entries, compute
        // tags ⇔ ops entries) guarantees these windows exist; `get`
        // keeps the decoder total, and were it ever violated the empty
        // batch ends the replay like the end of the stream.
        let (Some(pcs), Some(vaddrs), Some(ops)) = (
            self.pcs.get(cursor.mem..cursor.mem + mem_take as usize),
            self.vaddrs.get(cursor.mem..cursor.mem + mem_take as usize),
            self.ops.get(cursor.compute..cursor.compute + compute_take),
        ) else {
            return 0;
        };
        let mut mem = 0usize;
        let mut compute = 0usize;
        for &tag in &tags[..take] {
            let event = if tag == TAG_COMPUTE {
                debug_assert!(compute < ops.len());
                let ops = ops[compute];
                compute += 1;
                Event::Compute { ops }
            } else {
                debug_assert!(mem < pcs.len());
                let pc = Pc::new(pcs[mem]);
                let vaddr = VirtAddr::new(vaddrs[mem]);
                mem += 1;
                let (kind, dependent) = match tag {
                    TAG_LOAD => (AccessKind::Read, false),
                    TAG_LOAD_DEP => (AccessKind::Read, true),
                    TAG_STORE => (AccessKind::Write, false),
                    // The constructors only ever store tags 0..=4; anything
                    // else would have been rejected by `read_from`.
                    _ => (AccessKind::Write, true),
                };
                Event::Mem { pc, vaddr, kind, dependent }
            };
            batch.events.push(event);
        }
        cursor.index += take;
        cursor.mem += mem;
        cursor.compute += compute;
        mem_take
    }

    /// Iterates the stream from the beginning (borrowing, zero-copy).
    pub fn iter(&self) -> StreamIter<'_> {
        StreamIter { stream: self, cursor: StreamCursor::default() }
    }

    /// Captures up to `max_events` events of `workload`.
    pub fn capture(workload: &mut dyn Workload, max_events: u64) -> Self {
        let mut stream = Self::new();
        while (stream.len() as u64) < max_events {
            match workload.next_event() {
                Some(event) => stream.push(event),
                None => break,
            }
        }
        stream
    }

    /// Captures events of `workload` until `mem_ops` *memory* events have
    /// been recorded (compute events in between are kept), or the
    /// workload ends. The capture stops directly after the final memory
    /// event — exactly the prefix a simulator bounded by `mem_ops` memory
    /// operations consumes, so replaying the captured stream is
    /// bit-identical to generating it live.
    pub fn capture_mem_ops(workload: &mut dyn Workload, mem_ops: u64) -> Self {
        let mut stream = Self::new();
        let mut mem = 0u64;
        while mem < mem_ops {
            match workload.next_event() {
                Some(event) => {
                    if event.is_mem() {
                        mem += 1;
                    }
                    stream.push(event);
                }
                None => break,
            }
        }
        stream
    }

    /// Serializes the stream (counts followed by the raw arrays, all
    /// little-endian). This is the payload of the `DPCTRC2` trace format;
    /// framing (magic bytes) is the caller's concern.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `sink`.
    pub fn write_to<W: Write>(&self, sink: &mut W) -> io::Result<()> {
        sink.write_all(&(self.tags.len() as u64).to_le_bytes())?;
        sink.write_all(&(self.pcs.len() as u64).to_le_bytes())?;
        sink.write_all(&(self.ops.len() as u64).to_le_bytes())?;
        sink.write_all(&self.tags)?;
        for pc in &self.pcs {
            sink.write_all(&pc.to_le_bytes())?;
        }
        for vaddr in &self.vaddrs {
            sink.write_all(&vaddr.to_le_bytes())?;
        }
        for ops in &self.ops {
            sink.write_all(&ops.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserializes a stream written by [`EventStream::write_to`],
    /// validating every structural invariant.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::UnexpectedEof`] for truncated input and
    /// [`io::ErrorKind::InvalidData`] for inconsistent counts, unknown
    /// tags, or a memory event that is not canonical ([`check_canonical`]).
    /// Array storage is grown incrementally as bytes actually arrive, so a
    /// corrupt header claiming absurd counts fails with an error instead of
    /// attempting a giant allocation.
    pub fn read_from<R: Read>(source: &mut R) -> io::Result<Self> {
        let n_events = read_u64(source)?;
        let n_mem = read_u64(source)?;
        let n_compute = read_u64(source)?;
        if n_mem.checked_add(n_compute) != Some(n_events) {
            return Err(invalid("event counts are inconsistent"));
        }
        let tags = read_bytes(source, n_events)?;
        let mut seen_mem = 0u64;
        let mut seen_compute = 0u64;
        for &tag in &tags {
            match tag {
                TAG_COMPUTE => seen_compute += 1,
                t if t <= TAG_MAX => seen_mem += 1,
                t => return Err(invalid(&format!("unknown event tag {t}"))),
            }
        }
        if seen_mem != n_mem || seen_compute != n_compute {
            return Err(invalid("tag array does not match the declared counts"));
        }
        let pcs = read_u64_array(source, n_mem)?;
        let vaddrs = read_u64_array(source, n_mem)?;
        let ops = read_u32_array(source, n_compute)?;
        let stream = EventStream { tags, pcs, vaddrs, ops };
        stream.check_addresses()?;
        Ok(stream)
    }

    /// Refuses the stream if a memory event's PC or address is not
    /// canonical ([`check_canonical`]), naming the first such event.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`], as [`check_canonical`].
    pub fn check_addresses(&self) -> io::Result<()> {
        let mem_indices = self.tags.iter().enumerate().filter(|&(_, &tag)| tag != TAG_COMPUTE);
        let mem_events = mem_indices.zip(self.pcs.iter().zip(&self.vaddrs));
        for ((index, _), (&pc, &vaddr)) in mem_events {
            check_canonical(index, Pc::new(pc), VirtAddr::new(vaddr))?;
        }
        Ok(())
    }
}

/// Scans a tag window and returns `(take, mem_take)`: how many leading
/// tags a replay chunk may consume without exceeding a budget of
/// `max_mem` tags that differ from `compute_tag` (i.e. memory events),
/// and how many such tags the prefix contains.
///
/// The cut lands directly *after* the budget-th memory tag, so trailing
/// compute tags beyond the last in-budget memory event are **not** taken
/// — exactly the gate-before-every-event semantics of a
/// `while mem_ops < budget` replay loop.
#[inline]
fn classify_tags(tags: &[u8], compute_tag: u8, max_mem: u64) -> (usize, u64) {
    if max_mem == 0 {
        return (0, 0);
    }
    let mut mem = 0u64;
    for (i, &tag) in tags.iter().enumerate() {
        if tag != compute_tag {
            mem += 1;
            if mem == max_mem {
                return (i + 1, mem);
            }
        }
    }
    (tags.len(), mem)
}

impl fmt::Debug for EventStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventStream")
            .field("events", &self.len())
            .field("mem_events", &self.mem_events())
            .field("compute_events", &self.compute_events())
            .field("encoded_bytes", &self.encoded_bytes())
            .finish()
    }
}

impl FromIterator<Event> for EventStream {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let mut stream = Self::new();
        for event in events {
            stream.push(event);
        }
        stream
    }
}

impl<'a> IntoIterator for &'a EventStream {
    type Item = Event;
    type IntoIter = StreamIter<'a>;

    fn into_iter(self) -> StreamIter<'a> {
        self.iter()
    }
}

/// Replay position inside an [`EventStream`]: the next event index plus
/// the split payload-array positions. Plain data — clone it to fork a
/// replay, default it to start from the beginning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCursor {
    index: usize,
    mem: usize,
    compute: usize,
}

impl StreamCursor {
    /// Number of events already replayed.
    pub fn position(&self) -> usize {
        self.index
    }

    /// Number of memory events already replayed.
    pub fn mem_position(&self) -> usize {
        self.mem
    }
}

/// Reusable scratch buffer for [`EventStream::decode_chunk`]: a decoded
/// slice of the stream that a replay loop consumes in one pass.
///
/// The buffer is cleared and refilled by each `decode_chunk` call but
/// keeps its capacity, so a replay that decodes in fixed-size chunks
/// performs exactly one allocation over its whole lifetime.
#[derive(Clone, Debug, Default)]
pub struct EventBatch {
    events: Vec<Event>,
}

impl EventBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventBatch { events: Vec::with_capacity(capacity) }
    }

    /// The decoded events, in stream order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of decoded events currently in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Borrowing iterator over an [`EventStream`], created by
/// [`EventStream::iter`].
#[derive(Clone, Debug)]
pub struct StreamIter<'a> {
    stream: &'a EventStream,
    cursor: StreamCursor,
}

impl Iterator for StreamIter<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        self.stream.next_from(&mut self.cursor)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.stream.len() - self.cursor.index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for StreamIter<'_> {}

/// Refuses memory event `index` if its PC or virtual address lies at or
/// above 2^48 ([`VirtAddr::is_canonical`]): the simulated page table
/// would alias it onto the page 2^48 below.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] naming the event index and the field.
pub fn check_canonical(index: usize, pc: Pc, vaddr: VirtAddr) -> io::Result<()> {
    let (field, raw) = if !vaddr.is_canonical() {
        ("vaddr", vaddr.raw())
    } else if !pc.is_canonical() {
        ("pc", pc.raw())
    } else {
        return Ok(());
    };
    Err(invalid(&format!("event {index}: {field} {raw:#x} is not below 2^48")))
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("dpc event stream: {message}"))
}

fn read_u64<R: Read>(source: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    source.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads exactly `len` bytes, growing the buffer chunk by chunk so a
/// corrupt length field cannot trigger a huge up-front allocation.
fn read_bytes<R: Read>(source: &mut R, len: u64) -> io::Result<Vec<u8>> {
    const CHUNK: u64 = 1 << 20;
    usize::try_from(len).map_err(|_| invalid("length field overflows this platform"))?;
    let mut out = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(CHUNK) as usize;
        let start = out.len();
        out.resize(start + take, 0);
        source.read_exact(&mut out[start..])?;
        remaining -= take as u64;
    }
    Ok(out)
}

fn read_u64_array<R: Read>(source: &mut R, count: u64) -> io::Result<Vec<u64>> {
    let bytes = count.checked_mul(8).ok_or_else(|| invalid("count field overflows"))?;
    let raw = read_bytes(source, bytes)?;
    Ok(raw
        .chunks_exact(8)
        .map(|chunk| u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8])))
        .collect())
}

fn read_u32_array<R: Read>(source: &mut R, count: u64) -> io::Result<Vec<u32>> {
    let bytes = count.checked_mul(4).ok_or_else(|| invalid("count field overflows"))?;
    let raw = read_bytes(source, bytes)?;
    Ok(raw
        .chunks_exact(4)
        .map(|chunk| u32::from_le_bytes(chunk.try_into().unwrap_or([0; 4])))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::load(Pc::new(0x400), VirtAddr::new(0x1000)),
            Event::Compute { ops: 7 },
            Event::store(Pc::new(0x404), VirtAddr::new(0x2000)),
            Event::load_dependent(Pc::new(0x408), VirtAddr::new(0x3000)),
            Event::Mem {
                pc: Pc::new(0x40c),
                vaddr: VirtAddr::new(0x4000),
                kind: AccessKind::Write,
                dependent: true,
            },
            Event::Compute { ops: 1 },
        ]
    }

    #[test]
    fn push_iter_roundtrip_preserves_every_variant() {
        let events = sample_events();
        let stream: EventStream = events.iter().copied().collect();
        assert_eq!(stream.len(), events.len());
        assert_eq!(stream.mem_events(), 4);
        assert_eq!(stream.compute_events(), 2);
        let replayed: Vec<Event> = stream.iter().collect();
        assert_eq!(replayed, events, "dependent stores must survive the roundtrip");
    }

    #[test]
    fn serialization_roundtrip() {
        let stream: EventStream = sample_events().into_iter().collect();
        let mut buf = Vec::new();
        stream.write_to(&mut buf).unwrap();
        let back = EventStream::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, stream);
    }

    #[test]
    fn truncated_payload_is_unexpected_eof() {
        let stream: EventStream = sample_events().into_iter().collect();
        let mut buf = Vec::new();
        stream.write_to(&mut buf).unwrap();
        for cut in [1, 10, buf.len() - 1] {
            let err = EventStream::read_from(&mut &buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn inconsistent_counts_rejected() {
        let mut buf = Vec::new();
        // 2 events claimed, but 2 mem + 2 compute = 4.
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        let err = EventStream::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(99); // not a valid tag
        let err = EventStream::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn tag_count_mismatch_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&[TAG_LOAD, TAG_LOAD]); // two mem tags, zero compute
        let err = EventStream::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn absurd_header_fails_without_huge_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        // The tags array is "u64::MAX bytes long"; the chunked reader must
        // hit EOF after the header instead of reserving that much memory.
        let err = EventStream::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn capture_mem_ops_stops_after_final_mem_event() {
        struct Alternating(u64);
        impl Workload for Alternating {
            fn name(&self) -> &str {
                "alternating"
            }
            fn next_event(&mut self) -> Option<Event> {
                self.0 += 1;
                Some(if self.0.is_multiple_of(2) {
                    Event::Compute { ops: 1 }
                } else {
                    Event::load(Pc::new(0x400), VirtAddr::new(self.0 * 4096))
                })
            }
        }
        let stream = EventStream::capture_mem_ops(&mut Alternating(0), 3);
        assert_eq!(stream.mem_events(), 3);
        // mem, compute, mem, compute, mem — stops right after mem #3.
        assert_eq!(stream.len(), 5);
        assert!(stream.iter().last().is_some_and(|e| e.is_mem()));
    }

    #[test]
    fn cursor_positions_track_replay() {
        let stream: EventStream = sample_events().into_iter().collect();
        let mut cursor = StreamCursor::default();
        assert_eq!(cursor.position(), 0);
        stream.next_from(&mut cursor);
        stream.next_from(&mut cursor);
        assert_eq!(cursor.position(), 2);
        assert_eq!(cursor.mem_position(), 1);
        while stream.next_from(&mut cursor).is_some() {}
        assert_eq!(cursor.position(), stream.len());
        assert_eq!(stream.next_from(&mut cursor), None, "exhausted cursor stays exhausted");
    }

    #[test]
    fn decode_chunk_matches_event_at_a_time_replay() {
        let stream: EventStream = sample_events().into_iter().collect();
        // Chunked decode at every chunk size must reproduce the exact
        // event sequence of the one-at-a-time cursor.
        let expected: Vec<Event> = stream.iter().collect();
        for chunk in 1..=stream.len() + 1 {
            let mut cursor = StreamCursor::default();
            let mut batch = EventBatch::with_capacity(chunk);
            let mut decoded = Vec::new();
            let mut mem_total = 0;
            loop {
                mem_total += stream.decode_chunk(&mut cursor, &mut batch, chunk, u64::MAX);
                if batch.is_empty() {
                    break;
                }
                decoded.extend_from_slice(batch.events());
            }
            assert_eq!(decoded, expected, "chunk size {chunk}");
            assert_eq!(mem_total, stream.mem_events() as u64);
            assert_eq!(cursor.position(), stream.len());
        }
    }

    #[test]
    fn decode_chunk_respects_mem_budget_like_a_run_loop() {
        // mem, compute, mem, compute, mem, compute (ends on a compute).
        let stream: EventStream = vec![
            Event::load(Pc::new(1), VirtAddr::new(0x1000)),
            Event::Compute { ops: 1 },
            Event::load(Pc::new(2), VirtAddr::new(0x2000)),
            Event::Compute { ops: 2 },
            Event::load(Pc::new(3), VirtAddr::new(0x3000)),
            Event::Compute { ops: 3 },
        ]
        .into_iter()
        .collect();
        let mut cursor = StreamCursor::default();
        let mut batch = EventBatch::new();
        // Budget of 2 memory events: the trailing compute between mem #2
        // and mem #3 must NOT be decoded (the budget gate runs before
        // every event, exactly like `while mem_ops < budget`).
        let mem = stream.decode_chunk(&mut cursor, &mut batch, 256, 2);
        assert_eq!(mem, 2);
        assert_eq!(batch.len(), 3, "mem, compute, mem — stops before the next compute");
        assert_eq!(cursor.mem_position(), 2);
        // Resuming with the remaining budget picks up the compute first.
        let mem = stream.decode_chunk(&mut cursor, &mut batch, 256, 1);
        assert_eq!(mem, 1);
        assert_eq!(batch.events()[0], Event::Compute { ops: 2 });
        assert_eq!(batch.len(), 2, "compute then mem #3; trailing compute left");
        // Zero budget decodes nothing at all.
        let mem = stream.decode_chunk(&mut cursor, &mut batch, 256, 0);
        assert_eq!((mem, batch.len()), (0, 0));
    }

    /// Deterministic LCG-driven stream for the decoder differential
    /// sweep: mixes all five tags with uneven frequencies.
    fn random_stream(events: usize, seed: u64) -> EventStream {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        (0..events)
            .map(|_| match next() % 8 {
                0..=2 => Event::load(Pc::new(next()), VirtAddr::new(next())),
                3 => Event::store(Pc::new(next()), VirtAddr::new(next())),
                4 => Event::load_dependent(Pc::new(next()), VirtAddr::new(next())),
                5 => Event::Mem {
                    pc: Pc::new(next()),
                    vaddr: VirtAddr::new(next()),
                    kind: AccessKind::Write,
                    dependent: true,
                },
                _ => Event::Compute { ops: next() as u32 },
            })
            .collect()
    }

    /// The serial reference for [`EventStream::decode_chunk`]: the
    /// per-event [`EventStream::next_from`] decoder behind a
    /// `while len < max_events && mem < max_mem` gate.
    fn decode_serial(
        stream: &EventStream,
        cursor: &mut StreamCursor,
        batch: &mut Vec<Event>,
        max_events: usize,
        max_mem: u64,
    ) -> u64 {
        batch.clear();
        let mut mem = 0u64;
        while batch.len() < max_events && mem < max_mem {
            let Some(event) = stream.next_from(cursor) else { break };
            mem += u64::from(event.is_mem());
            batch.push(event);
        }
        mem
    }

    /// Runs the chunk decoder and the serial reference over the same
    /// stream with the same chunk size and per-call budgets, asserting
    /// every observable (batch contents, returned mem count, cursor)
    /// matches call for call.
    fn assert_decoders_agree(stream: &EventStream, chunk: usize, budgets: &[u64]) {
        let mut serial_cursor = StreamCursor::default();
        let mut prescan_cursor = StreamCursor::default();
        let mut serial_batch = Vec::new();
        let mut prescan_batch = EventBatch::new();
        let mut budget_iter = budgets.iter().cycle();
        loop {
            let budget = *budget_iter.next().expect("cycle is infinite");
            let want = decode_serial(stream, &mut serial_cursor, &mut serial_batch, chunk, budget);
            let got = stream.decode_chunk(&mut prescan_cursor, &mut prescan_batch, chunk, budget);
            assert_eq!(got, want, "mem count at {serial_cursor:?} (chunk {chunk})");
            assert_eq!(
                prescan_batch.events(),
                &serial_batch[..],
                "batch at {serial_cursor:?} (chunk {chunk})"
            );
            assert_eq!(prescan_cursor, serial_cursor, "cursor (chunk {chunk})");
            if serial_batch.is_empty() && budget > 0 {
                break;
            }
        }
        assert_eq!(serial_cursor.position(), stream.len());
    }

    #[test]
    fn prescan_decoder_matches_serial_exhaustively_on_sample() {
        let stream: EventStream = sample_events().into_iter().collect();
        for chunk in 1..=stream.len() + 1 {
            for budget in 1..=5u64 {
                assert_decoders_agree(&stream, chunk, &[budget]);
            }
        }
    }

    #[test]
    fn prescan_decoder_matches_serial_on_random_streams() {
        for (seed, events) in [(1u64, 31), (2, 32), (3, 33), (4, 257), (5, 1000)] {
            let stream = random_stream(events, seed);
            for chunk in [1, 7, 32, 256, events + 1] {
                assert_decoders_agree(&stream, chunk, &[u64::MAX]);
                assert_decoders_agree(&stream, chunk, &[1, 3, 17, 2]);
            }
        }
    }

    #[test]
    fn prescan_decoder_handles_degenerate_inputs() {
        let empty = EventStream::new();
        let mut cursor = StreamCursor::default();
        let mut batch = EventBatch::new();
        assert_eq!(empty.decode_chunk(&mut cursor, &mut batch, 256, u64::MAX), 0);
        assert!(batch.is_empty());
        // All-compute stream: budget never binds, window does.
        let computes: EventStream = (0..100).map(|ops| Event::Compute { ops }).collect();
        assert_decoders_agree(&computes, 16, &[1]);
        // Zero budget decodes nothing on either path.
        let stream = random_stream(64, 9);
        let mut cursor = StreamCursor::default();
        assert_eq!(stream.decode_chunk(&mut cursor, &mut batch, 256, 0), 0);
        assert_eq!((batch.len(), cursor.position()), (0, 0));
    }

    #[test]
    fn classify_tags_cuts_after_budget_mem_tag() {
        // mem compute mem compute mem compute
        let tags = [0u8, TAG_COMPUTE, 1, TAG_COMPUTE, 2, TAG_COMPUTE];
        assert_eq!(classify_tags(&tags, TAG_COMPUTE, 2), (3, 2));
        assert_eq!(classify_tags(&tags, TAG_COMPUTE, 3), (5, 3));
        assert_eq!(classify_tags(&tags, TAG_COMPUTE, 4), (6, 3));
        assert_eq!(classify_tags(&tags, TAG_COMPUTE, 0), (0, 0));
    }

    #[test]
    fn classify_tags_takes_everything_under_budget() {
        let tags = [TAG_COMPUTE; 100];
        assert_eq!(classify_tags(&tags, TAG_COMPUTE, 5), (100, 0));
        assert_eq!(classify_tags(&[], TAG_COMPUTE, 5), (0, 0));
    }

    /// The naive reference for [`classify_tags`]: a budget gate before
    /// every tag.
    fn classify_naive(tags: &[u8], max_mem: u64) -> (usize, u64) {
        let (mut take, mut mem) = (0, 0);
        while mem < max_mem && take < tags.len() {
            mem += u64::from(tags[take] != TAG_COMPUTE);
            take += 1;
        }
        (take, mem)
    }

    #[test]
    fn classify_tags_cuts_at_every_budget_position() {
        // All-memory window: the budget can expire at every position,
        // including past the end.
        let tags = [TAG_LOAD; 40];
        for budget in 0..=41u64 {
            let want = (budget.min(40) as usize, budget.min(40));
            assert_eq!(classify_tags(&tags, TAG_COMPUTE, budget), want, "budget {budget}");
        }
    }

    #[test]
    fn classify_tags_matches_naive_loop_on_random_windows() {
        let mut state = 0x0D15_EA5E_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        for round in 0..500 {
            let len = (next() % 300) as usize;
            let tags: Vec<u8> = (0..len)
                .map(|_| if next().is_multiple_of(3) { TAG_COMPUTE } else { (next() % 5) as u8 })
                .collect();
            for max_mem in [0u64, 1, 2, 31, 32, 33, 64, 100, u64::MAX] {
                let want = classify_naive(&tags, max_mem);
                let got = classify_tags(&tags, TAG_COMPUTE, max_mem);
                assert_eq!(got, want, "round {round}, len {len}, budget {max_mem}");
            }
        }
    }

    #[test]
    fn iterator_is_exact_size() {
        let stream: EventStream = sample_events().into_iter().collect();
        let mut iter = stream.iter();
        assert_eq!(iter.len(), 6);
        iter.next();
        assert_eq!(iter.len(), 5);
    }
}
