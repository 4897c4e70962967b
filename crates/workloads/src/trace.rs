//! Trace capture and replay.
//!
//! Any [`Workload`]'s event stream can be captured to a compact binary
//! trace file with [`TraceWriter`] and replayed later with
//! [`TraceWorkload`] — useful for distributing reproducible inputs,
//! diffing generator changes, or feeding externally collected traces
//! (e.g. converted Pin/DynamoRIO output) into the simulator.
//!
//! # Format
//!
//! Little-endian binary: an 8-byte magic, then the payload.
//!
//! **v2** (`b"DPCTRC2\n"`, written by [`TraceWriter`]) is the serialized
//! struct-of-arrays [`EventStream`]: three `u64` counts (events, memory
//! events, compute events) followed by the tag, pc, vaddr, and ops
//! arrays. See [`dpc_types::stream`] for the exact layout and tag table.
//!
//! **v1** (`b"DPCTRC1\n"`, legacy) is a per-record tag/payload stream:
//!
//! | tag (u8) | payload | meaning |
//! |---|---|---|
//! | 0 | `pc: u64, vaddr: u64` | independent load |
//! | 1 | `pc: u64, vaddr: u64` | store |
//! | 2 | `pc: u64, vaddr: u64` | dependent load |
//! | 3 | `ops: u32` | compute batch |
//!
//! v1 files still replay, but the format is lossy: its writer collapsed
//! dependent stores into plain stores (there is no dependent-store tag),
//! so the `dependent` flag of stores does not survive a v1 roundtrip.
//! v2 preserves every event exactly, and its up-front counts let the
//! reader validate the whole file before replay begins: any malformed
//! input — bad magic, truncated record, unknown tag, inconsistent
//! counts — is an [`io::Error`] from [`TraceWorkload::open`], never a
//! panic and never a silently shortened replay.
//!
//! Both formats carry full `u64` PCs and addresses, but the simulated
//! address space is 48 bits wide: a PC or address at or above 2^48 is
//! [`io::ErrorKind::InvalidData`] naming the event index, in either
//! reader and in [`TraceWriter`], rather than a page aliased onto the
//! one 2^48 below it.
//!
//! # Example
//!
//! ```no_run
//! use dpc_workloads::trace::{TraceWriter, TraceWorkload};
//! use dpc_workloads::{Scale, WorkloadFactory};
//!
//! # fn main() -> std::io::Result<()> {
//! let factory = WorkloadFactory::new(Scale::Tiny, 42);
//! let mut bfs = factory.build("bfs").expect("known workload");
//! TraceWriter::capture("bfs.dpctrc", bfs.as_mut(), 100_000)?;
//! let replay = TraceWorkload::open("bfs.dpctrc")?;
//! # let _ = replay;
//! # Ok(())
//! # }
//! ```

use dpc_types::stream::{check_canonical, EventStream, StreamCursor};
use dpc_types::{Event, Pc, VirtAddr, Workload};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC_V1: &[u8; 8] = b"DPCTRC1\n";
const MAGIC_V2: &[u8; 8] = b"DPCTRC2\n";

const V1_TAG_LOAD: u8 = 0;
const V1_TAG_STORE: u8 = 1;
const V1_TAG_LOAD_DEP: u8 = 2;
const V1_TAG_COMPUTE: u8 = 3;

/// Writes events into a binary trace file (current format, `DPCTRC2`).
///
/// Events are buffered in an [`EventStream`] and serialized on
/// [`TraceWriter::finish`] — the v2 format stores counts and
/// struct-of-arrays payloads, so it cannot be streamed record by record.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    stream: EventStream,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file creation.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::new(BufWriter::new(File::create(path)?))
    }

    /// Captures up to `max_events` events of `workload` into a trace file
    /// at `path`, returning the number written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn capture(
        path: impl AsRef<Path>,
        workload: &mut dyn Workload,
        max_events: u64,
    ) -> io::Result<u64> {
        let mut writer = Self::create(path)?;
        while writer.events() < max_events {
            match workload.next_event() {
                Some(event) => writer.write_event(&event)?,
                None => break,
            }
        }
        let written = writer.events();
        writer.finish()?;
        Ok(written)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps any writer (pass `&mut buf` or a `BufWriter`; see
    /// [`std::io::Write`]'s blanket impl for `&mut W`). Nothing is
    /// written until [`TraceWriter::finish`].
    ///
    /// # Errors
    ///
    /// Infallible today; kept `io::Result` for signature stability.
    pub fn new(sink: W) -> io::Result<Self> {
        Ok(TraceWriter { sink, stream: EventStream::new() })
    }

    /// Wraps a writer and pre-fills it with an already-captured stream.
    pub fn from_stream(sink: W, stream: EventStream) -> Self {
        TraceWriter { sink, stream }
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`], and the event is not appended, if
    /// its PC or address lies at or above 2^48 ([`check_canonical`]).
    pub fn write_event(&mut self, event: &Event) -> io::Result<()> {
        if let Event::Mem { pc, vaddr, .. } = *event {
            check_canonical(self.stream.len(), pc, vaddr)?;
        }
        self.stream.push(*event);
        Ok(())
    }

    /// Events buffered so far.
    pub fn events(&self) -> u64 {
        self.stream.len() as u64
    }

    /// Serializes the buffered stream (magic + v2 payload), flushes, and
    /// returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. A [`TraceWriter::from_stream`] stream holding
    /// an event whose PC or address lies at or above 2^48 is
    /// [`io::ErrorKind::InvalidData`], and nothing is written.
    pub fn finish(mut self) -> io::Result<W> {
        self.stream.check_addresses()?;
        self.sink.write_all(MAGIC_V2)?;
        self.stream.write_to(&mut self.sink)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Replays a binary trace file (v1 or v2) as a [`Workload`].
///
/// The whole file is decoded and validated at open time into an
/// [`EventStream`]; replay is then a pure in-memory cursor walk.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    name: String,
    events: EventStream,
    cursor: StreamCursor,
}

impl TraceWorkload {
    /// Opens a trace file for replay.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or is malformed in
    /// any way: bad magic, truncated record, unknown tag, a PC or address
    /// at or above 2^48, or (v2) inconsistent counts.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let name = path
            .as_ref()
            .file_stem()
            .map_or_else(|| "trace".to_owned(), |s| s.to_string_lossy().into_owned());
        Self::with_name(BufReader::new(File::open(path)?), name)
    }

    /// Decodes a trace from any reader.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for bad magic, unknown record tags,
    /// a PC or address at or above 2^48 (naming the event index), or
    /// inconsistent v2 counts; [`io::ErrorKind::UnexpectedEof`] for
    /// input truncated mid-record or mid-array.
    pub fn with_name<R: Read>(mut source: R, name: impl Into<String>) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic)?;
        let events = match &magic {
            m if m == MAGIC_V1 => decode_v1(&mut source)?,
            m if m == MAGIC_V2 => EventStream::read_from(&mut source)?,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a dpc trace file (bad magic)",
                ))
            }
        };
        Ok(TraceWorkload { name: name.into(), events, cursor: StreamCursor::default() })
    }

    /// Wraps an already-decoded stream, refusing it if a memory event's
    /// PC or address lies at or above 2^48 (the page table would alias
    /// such a page onto the one 2^48 below).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] naming the first such event, as
    /// [`EventStream::check_addresses`].
    pub fn from_stream(name: impl Into<String>, events: EventStream) -> io::Result<Self> {
        events.check_addresses()?;
        Ok(TraceWorkload { name: name.into(), events, cursor: StreamCursor::default() })
    }

    /// The decoded stream.
    pub fn stream(&self) -> &EventStream {
        &self.events
    }

    /// Consumes the replay, returning the decoded stream.
    pub fn into_stream(self) -> EventStream {
        self.events
    }

    /// Resets the replay to the start of the trace.
    pub fn rewind(&mut self) {
        self.cursor = StreamCursor::default();
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_event(&mut self) -> Option<Event> {
        self.events.next_from(&mut self.cursor)
    }
}

/// Decodes the legacy v1 record stream strictly: end-of-file is only
/// legal at a record boundary.
fn decode_v1<R: Read>(source: &mut R) -> io::Result<EventStream> {
    let mut stream = EventStream::new();
    while let Some(tag) = read_tag(source)? {
        let event = match tag {
            V1_TAG_LOAD => Event::load(read_pc(source)?, read_vaddr(source)?),
            V1_TAG_STORE => Event::store(read_pc(source)?, read_vaddr(source)?),
            V1_TAG_LOAD_DEP => Event::load_dependent(read_pc(source)?, read_vaddr(source)?),
            V1_TAG_COMPUTE => Event::Compute { ops: read_u32(source)? },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("dpc trace v1: unknown record tag {other}"),
                ))
            }
        };
        if let Event::Mem { pc, vaddr, .. } = event {
            check_canonical(stream.len(), pc, vaddr)?;
        }
        stream.push(event);
    }
    Ok(stream)
}

/// Reads one record tag, distinguishing clean end-of-file (`None`) from
/// I/O failure.
fn read_tag<R: Read>(source: &mut R) -> io::Result<Option<u8>> {
    let mut buf = [0u8; 1];
    loop {
        match source.read(&mut buf) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(buf[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn read_u64<R: Read>(source: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    source.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32<R: Read>(source: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    source.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_pc<R: Read>(source: &mut R) -> io::Result<Pc> {
    Ok(Pc::new(read_u64(source)?))
}

fn read_vaddr<R: Read>(source: &mut R) -> io::Result<VirtAddr> {
    Ok(VirtAddr::new(read_u64(source)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, WorkloadFactory};
    use dpc_types::AccessKind;

    fn roundtrip(events: &[Event]) -> Vec<Event> {
        let mut buf = Vec::new();
        {
            let mut writer = TraceWriter::new(&mut buf).unwrap();
            for e in events {
                writer.write_event(e).unwrap();
            }
            writer.finish().unwrap();
        }
        let mut replay = TraceWorkload::with_name(buf.as_slice(), "test").unwrap();
        std::iter::from_fn(|| replay.next_event()).collect()
    }

    /// Builds a v1-format byte string by hand (the v1 writer is gone).
    fn v1_bytes(records: &[Event]) -> Vec<u8> {
        let mut buf = MAGIC_V1.to_vec();
        for event in records {
            match *event {
                Event::Mem { pc, vaddr, kind, dependent } => {
                    let tag = match (kind, dependent) {
                        (AccessKind::Write, _) => V1_TAG_STORE,
                        (AccessKind::Read, true) => V1_TAG_LOAD_DEP,
                        (AccessKind::Read, false) => V1_TAG_LOAD,
                    };
                    buf.push(tag);
                    buf.extend_from_slice(&pc.raw().to_le_bytes());
                    buf.extend_from_slice(&vaddr.raw().to_le_bytes());
                }
                Event::Compute { ops } => {
                    buf.push(V1_TAG_COMPUTE);
                    buf.extend_from_slice(&ops.to_le_bytes());
                }
            }
        }
        buf
    }

    #[test]
    fn all_event_kinds_roundtrip_including_dependent_stores() {
        let events = vec![
            Event::load(Pc::new(0x400), VirtAddr::new(0x1000)),
            Event::store(Pc::new(0x404), VirtAddr::new(0x2000)),
            Event::load_dependent(Pc::new(0x408), VirtAddr::new(0x3000)),
            Event::Mem {
                pc: Pc::new(0x40c),
                vaddr: VirtAddr::new(0x4000),
                kind: AccessKind::Write,
                dependent: true,
            },
            Event::Compute { ops: 7 },
        ];
        // v2 is lossless: the dependent store survives (it did not in v1).
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn real_workload_roundtrips_exactly() {
        let f1 = WorkloadFactory::new(Scale::Tiny, 42);
        let mut original = f1.build("canneal").unwrap();
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).unwrap();
        let mut recorded = Vec::new();
        for _ in 0..5_000 {
            let event = original.next_event().unwrap();
            writer.write_event(&event).unwrap();
            recorded.push(event);
        }
        writer.finish().unwrap();
        let mut replay = TraceWorkload::with_name(buf.as_slice(), "canneal").unwrap();
        for (i, expected) in recorded.iter().enumerate() {
            assert_eq!(replay.next_event().as_ref(), Some(expected), "event {i}");
        }
        assert_eq!(replay.next_event(), None, "replay must end with the recording");
        replay.rewind();
        assert_eq!(replay.next_event().as_ref(), recorded.first(), "rewind restarts the replay");
    }

    #[test]
    fn v1_traces_still_replay() {
        let events = vec![
            Event::load(Pc::new(0x400), VirtAddr::new(0x1000)),
            Event::store(Pc::new(0x404), VirtAddr::new(0x2000)),
            Event::load_dependent(Pc::new(0x408), VirtAddr::new(0x3000)),
            Event::Compute { ops: 7 },
        ];
        let buf = v1_bytes(&events);
        let mut replay = TraceWorkload::with_name(buf.as_slice(), "legacy").unwrap();
        let replayed: Vec<Event> = std::iter::from_fn(|| replay.next_event()).collect();
        assert_eq!(replayed, events);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceWorkload::with_name(&b"NOTATRACEATALL"[..], "x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = TraceWorkload::with_name(&b"DPC"[..], "x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "short magic is truncation");
    }

    #[test]
    fn truncated_v1_record_is_an_error_at_open() {
        let buf = v1_bytes(&[Event::load(Pc::new(1), VirtAddr::new(2))]);
        for cut in [buf.len() - 5, buf.len() - 1, MAGIC_V1.len() + 1] {
            let err = TraceWorkload::with_name(&buf[..cut], "torn").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // EOF exactly at a record boundary is a clean (empty or shorter) trace.
        let mut ok = TraceWorkload::with_name(&buf[..MAGIC_V1.len()], "empty").unwrap();
        assert_eq!(ok.next_event(), None);
    }

    #[test]
    fn unknown_v1_tag_is_an_error_at_open() {
        let mut buf = MAGIC_V1.to_vec();
        buf.push(99);
        let err = TraceWorkload::with_name(buf.as_slice(), "weird").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn corrupted_v2_bytes_are_errors_at_open() {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).unwrap();
        writer.write_event(&Event::load(Pc::new(1), VirtAddr::new(2))).unwrap();
        writer.write_event(&Event::Compute { ops: 3 }).unwrap();
        writer.finish().unwrap();
        // Truncations anywhere in the payload are UnexpectedEof.
        for cut in [MAGIC_V2.len() + 3, buf.len() - 1] {
            let err = TraceWorkload::with_name(&buf[..cut], "torn").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // A corrupted tag byte is InvalidData.
        let mut bad_tag = buf.clone();
        bad_tag[MAGIC_V2.len() + 24] = 77; // first tag, right after the three counts
        let err = TraceWorkload::with_name(bad_tag.as_slice(), "bad").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Inconsistent counts are InvalidData.
        let mut bad_counts = buf.clone();
        bad_counts[MAGIC_V2.len()] ^= 0xff; // scribble on the event count
        let err = TraceWorkload::with_name(bad_counts.as_slice(), "bad").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The untouched buffer still decodes.
        assert!(TraceWorkload::with_name(buf.as_slice(), "ok").is_ok());
    }

    #[test]
    fn addresses_at_or_above_2_pow_48_are_refused_by_both_formats() {
        let top = (1u64 << 48) - 1;
        let ok = Event::load(Pc::new(top), VirtAddr::new(top));
        let bad_vaddr = Event::store(Pc::new(0x400), VirtAddr::new(top + 1));
        let bad_pc = Event::load_dependent(Pc::new(u64::MAX), VirtAddr::new(0x1000));
        let compute = Event::Compute { ops: 2 };
        for (bad, field) in [(bad_vaddr, "vaddr"), (bad_pc, "pc")] {
            let events = [ok, compute, bad];
            let expect_event_2 = |err: io::Error| {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let message = err.to_string();
                assert!(message.contains("event 2") && message.contains(field), "{message}");
            };
            expect_event_2(
                TraceWorkload::with_name(v1_bytes(&events).as_slice(), "v1").unwrap_err(),
            );

            let mut writer = TraceWriter::new(Vec::new()).unwrap();
            writer.write_event(&ok).unwrap();
            writer.write_event(&compute).unwrap();
            expect_event_2(writer.write_event(&bad).unwrap_err());
            assert_eq!(writer.events(), 2, "a refused event is not buffered");
            let (stream, mut sink) = (events.iter().copied().collect(), Vec::new());
            expect_event_2(TraceWriter::from_stream(&mut sink, stream).finish().unwrap_err());
            assert!(sink.is_empty(), "a refused stream writes nothing");

            // A v2 file holding the event, encoded by hand.
            let mut v2 = MAGIC_V2.to_vec();
            let encoded: EventStream = [ok, compute, ok].into_iter().collect();
            encoded.write_to(&mut v2).unwrap();
            let (pc, vaddr) = match bad {
                Event::Mem { pc, vaddr, .. } => (pc.raw(), vaddr.raw()),
                Event::Compute { .. } => unreachable!(),
            };
            // Header, three tags and the first memory event's pc, then the
            // second pc; the vaddr array follows the two pcs.
            let pcs = MAGIC_V2.len() + 24 + 3;
            v2[pcs + 8..pcs + 16].copy_from_slice(&pc.to_le_bytes());
            v2[pcs + 24..pcs + 32].copy_from_slice(&vaddr.to_le_bytes());
            expect_event_2(TraceWorkload::with_name(v2.as_slice(), "v2").unwrap_err());
        }
        assert_eq!(roundtrip(&[ok, compute]), [ok, compute], "2^48 - 1 is still canonical");
    }

    #[test]
    fn capture_helper_writes_file() {
        let path = std::env::temp_dir().join("dpc_trace_test.dpctrc");
        let f = WorkloadFactory::new(Scale::Tiny, 7);
        let mut w = f.build("mcf").unwrap();
        let written = TraceWriter::capture(&path, w.as_mut(), 1_000).unwrap();
        assert_eq!(written, 1_000);
        let mut replay = TraceWorkload::open(&path).unwrap();
        assert_eq!(replay.name(), "dpc_trace_test");
        assert_eq!(replay.stream().len(), 1_000);
        let count = std::iter::from_fn(|| replay.next_event()).count();
        assert_eq!(count, 1_000);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn from_stream_constructors_share_the_encoding() {
        let mut stream = EventStream::new();
        stream.push(Event::load(Pc::new(1), VirtAddr::new(0x1000)));
        let mut sink = Vec::new();
        TraceWriter::from_stream(&mut sink, stream.clone()).finish().unwrap();
        let decoded = TraceWorkload::with_name(sink.as_slice(), "x").unwrap();
        assert_eq!(decoded.stream(), &stream);
        let direct = TraceWorkload::from_stream("x", stream.clone()).unwrap();
        assert_eq!(direct.into_stream(), stream);
    }

    #[test]
    fn from_stream_refuses_addresses_at_or_above_2_48() {
        let at = |vaddr| -> EventStream {
            [Event::load(Pc::new(1), VirtAddr::new(vaddr))].into_iter().collect()
        };
        let err = TraceWorkload::from_stream("x", at(0x1_0000_1000_0000)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("event 0"), "{err}");
        let lower = TraceWorkload::from_stream("x", at(0x1000_0000)).unwrap();
        assert_eq!(lower.stream().len(), 1);
    }
}
