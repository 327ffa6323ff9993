//! Incremental trace readers: bounded-memory streaming over both export
//! framings.
//!
//! [`read_trace`](crate::read_trace) loads a whole file and returns a
//! `Vec<TraceEvent>` — fine for debugging, impossible for the
//! multi-gigabyte traces a production bus emits. [`TraceReader`] is the
//! streaming sibling: it auto-detects the framing from the first four
//! bytes, parses the self-describing header up front, and then yields
//! one event at a time from a fixed-size internal buffer. Peak memory is
//! independent of trace length (the JSONL path caps line length at
//! [`MAX_LINE_BYTES`]; the binary path reads fixed-layout records into a
//! 20-byte scratch buffer). A JSONL line in one of the canonical shapes
//! `JsonlSink` writes is decoded in place from that buffer, without a
//! JSON tree (`jsonl.rs`); any other line is copied out and parsed as
//! general JSON.
//!
//! Failures are *structured*: every error is a [`StreamError`] carrying
//! the byte offset at which the malformed input was detected (and the
//! 1-based line number for JSONL), so a consumer such as `repro inspect`
//! can report exactly where a truncated or corrupt trace went wrong
//! instead of panicking or silently treating garbage as end-of-file.

use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

use busarb_types::{AgentId, Time, TraceEvent, TraceKind};

use crate::export::{
    coherence_op_from_code, MAGIC, TAG_ARBITRATION, TAG_COHERENCE, TAG_END, TAG_REQUEST,
    TAG_TRANSFER, VERSION,
};
use crate::jsonl::{decode_canonical, decode_event_line};
use crate::{TraceFormat, TraceHeader};

/// Upper bound on one JSONL line (header or event), not counting its
/// newline: a line of exactly this many bytes is accepted, one byte more
/// is rejected. A well-formed event line is under 120 bytes; the cap
/// exists so a corrupt newline-free file cannot force unbounded
/// buffering.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Upper bound on the length-prefixed binary header. Real headers are a
/// few hundred bytes; the cap keeps a corrupt length prefix from
/// provoking a multi-gigabyte allocation.
const MAX_HEADER_BYTES: u32 = 1 << 24;

/// A structured streaming-read failure: what went wrong and *where*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// Byte offset into the trace at which the failure was detected.
    pub offset: u64,
    /// 1-based line number (JSONL framing only).
    pub line: Option<u64>,
    /// What was wrong with the input.
    pub message: String,
}

impl StreamError {
    fn new(offset: u64, line: Option<u64>, message: impl Into<String>) -> Self {
        StreamError {
            offset,
            line,
            message: message.into(),
        }
    }
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.line {
            Some(line) => write!(
                f,
                "{} (line {line}, byte offset {})",
                self.message, self.offset
            ),
            None => write!(f, "{} (byte offset {})", self.message, self.offset),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<StreamError> for io::Error {
    fn from(e: StreamError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Extracts the [`StreamError`] (with its byte offset) from an
/// [`io::Error`] produced by this module, if there is one.
#[must_use]
pub fn stream_error(e: &io::Error) -> Option<&StreamError> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

/// An incremental reader over an exported `busarb-trace/1` stream.
///
/// The framing (JSONL or `BTRC` binary) is auto-detected from the first
/// four bytes; the header is parsed eagerly by [`TraceReader::new`], and
/// events are then pulled one at a time — via [`next_event`] or the
/// [`Iterator`] impl — without ever buffering more than one record.
///
/// [`next_event`]: TraceReader::next_event
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: BufReader<R>,
    header: TraceHeader,
    format: TraceFormat,
    /// Bytes consumed from the underlying stream so far.
    offset: u64,
    /// Lines consumed so far (JSONL framing; the header is line 1).
    line: u64,
    /// Line buffer for the JSONL lines not decoded in place: the header,
    /// non-canonical lines, and lines straddling a refill of `input`.
    buf: Vec<u8>,
    /// Set once end-of-stream or an error has been reached.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Wraps a byte stream, detects the framing, and parses the header.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError`] locating the first malformed byte when
    /// the stream is empty, the magic/version is unrecognized, or the
    /// header is truncated or invalid.
    pub fn new(reader: R) -> Result<Self, StreamError> {
        let mut input = BufReader::new(reader);
        // Peek the first four bytes to tell `BTRC` from JSONL. A valid
        // JSONL header line is always longer than four bytes, so a
        // shorter stream is malformed either way.
        let mut magic = [0u8; 4];
        let got = read_up_to(&mut input, &mut magic)
            .map_err(|e| StreamError::new(0, None, format!("cannot read trace: {e}")))?;
        if got == 0 {
            return Err(StreamError::new(0, None, "empty trace"));
        }
        if got == 4 && &magic == MAGIC {
            Self::new_binary(input)
        } else {
            Self::new_jsonl(input, &magic[..got])
        }
    }

    fn new_binary(mut input: BufReader<R>) -> Result<Self, StreamError> {
        let mut offset = MAGIC.len() as u64;
        let mut version = [0u8; 1];
        input.read_exact(&mut version).map_err(|_| {
            StreamError::new(offset, None, "truncated binary trace (no version byte)")
        })?;
        if version[0] != VERSION {
            return Err(StreamError::new(
                offset,
                None,
                format!(
                    "unsupported binary trace version {} (expected {VERSION})",
                    version[0]
                ),
            ));
        }
        offset += 1;
        let mut len_bytes = [0u8; 4];
        input.read_exact(&mut len_bytes).map_err(|_| {
            StreamError::new(offset, None, "truncated binary trace (no header length)")
        })?;
        offset += 4;
        let header_len = u32::from_le_bytes(len_bytes);
        if header_len > MAX_HEADER_BYTES {
            return Err(StreamError::new(
                offset - 4,
                None,
                format!("implausible header length {header_len} (corrupt length prefix?)"),
            ));
        }
        let mut header_bytes = vec![0u8; header_len as usize];
        input.read_exact(&mut header_bytes).map_err(|_| {
            StreamError::new(offset, None, "truncated binary trace (header cut short)")
        })?;
        let header_text = core::str::from_utf8(&header_bytes)
            .map_err(|_| StreamError::new(offset, None, "binary trace header is not UTF-8"))?;
        let header = parse_header(header_text, offset, None)?;
        offset += u64::from(header_len);
        Ok(TraceReader {
            input,
            header,
            format: TraceFormat::Binary,
            offset,
            line: 0,
            buf: Vec::new(),
            done: false,
        })
    }

    fn new_jsonl(input: BufReader<R>, prefix: &[u8]) -> Result<Self, StreamError> {
        let mut reader = TraceReader {
            input,
            // Placeholder until the real header line parses.
            header: TraceHeader {
                schema: String::new(),
                protocol: String::new(),
                agents: 0,
                seed: 0,
                warmup_samples: 0,
                batches: 0,
                samples_per_batch: 0,
                confidence: 0.0,
            },
            format: TraceFormat::Jsonl,
            // The four sniffed magic-candidate bytes are part of the
            // header line and already consumed from the stream.
            offset: prefix.len() as u64,
            line: 0,
            buf: prefix.to_vec(),
            done: false,
        };
        let line_start = 0;
        let had_line = reader.read_line_into_buf()?;
        if !had_line || reader.buf.iter().all(u8::is_ascii_whitespace) {
            return Err(StreamError::new(line_start, Some(1), "empty trace"));
        }
        let text = core::str::from_utf8(&reader.buf).map_err(|_| {
            StreamError::new(
                line_start,
                Some(1),
                "trace is neither binary (no magic) nor UTF-8 JSONL",
            )
        })?;
        reader.header = parse_header(text, line_start, Some(1))?;
        Ok(reader)
    }

    /// The parsed trace header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The detected framing.
    #[must_use]
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// Bytes consumed from the underlying stream so far.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Appends the rest of the current line to `buf`, which may already
    /// hold its first bytes (the four sniffed bytes of the header line),
    /// and consumes the line and its newline from the input. Returns
    /// `false` at a clean end of stream with `buf` empty.
    fn read_line_into_buf(&mut self) -> Result<bool, StreamError> {
        let line_start = self.offset - self.buf.len() as u64;
        let mut consumed = 0u64;
        loop {
            let available = fill(&mut self.input)
                .map_err(|e| read_error(self.offset + consumed, self.line + 1, &e))?;
            if available.is_empty() {
                break;
            }
            let newline = available.iter().position(|&b| b == b'\n');
            let take = newline.unwrap_or(available.len());
            if self.buf.len() + take > MAX_LINE_BYTES {
                return Err(StreamError::new(
                    line_start,
                    Some(self.line + 1),
                    format!("line exceeds {MAX_LINE_BYTES} bytes (corrupt trace?)"),
                ));
            }
            self.buf.extend_from_slice(&available[..take]);
            let used = take + usize::from(newline.is_some());
            self.input.consume(used);
            consumed += used as u64;
            if newline.is_some() {
                break;
            }
        }
        if consumed == 0 && self.buf.is_empty() {
            return Ok(false);
        }
        self.line += 1;
        self.offset += consumed;
        Ok(true)
    }

    /// Yields the next event, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError`] locating the first malformed byte on
    /// truncated or corrupt input. After an error (or a clean end) the
    /// reader stays exhausted: further calls return `Ok(None)`.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, StreamError> {
        if self.done {
            return Ok(None);
        }
        let result = match self.format {
            TraceFormat::Jsonl => self.next_jsonl(),
            TraceFormat::Binary => self.next_binary(),
        };
        if !matches!(result, Ok(Some(_))) {
            self.done = true;
        }
        result
    }

    fn next_jsonl(&mut self) -> Result<Option<TraceEvent>, StreamError> {
        let agents = self.header.agents;
        // The common case: a canonical line whose newline is already in
        // the input's buffer, decoded in place.
        let available =
            fill(&mut self.input).map_err(|e| read_error(self.offset, self.line + 1, &e))?;
        if let Some((event, rest @ [b'\n', ..])) = decode_canonical(available, agents) {
            let used = available.len() - rest.len() + 1;
            self.input.consume(used);
            self.offset += used as u64;
            self.line += 1;
            return Ok(Some(event));
        }
        // Anything else is copied out whole and decoded line by line.
        loop {
            let line_start = self.offset;
            self.buf.clear();
            if !self.read_line_into_buf()? {
                return Ok(None);
            }
            match decode_event_line(&self.buf, agents) {
                Ok(Some(event)) => return Ok(Some(event)),
                Ok(None) => {}
                Err(msg) => return Err(StreamError::new(line_start, Some(self.line), msg)),
            }
        }
    }

    fn next_binary(&mut self) -> Result<Option<TraceEvent>, StreamError> {
        let record_start = self.offset;
        let mut tag = [0u8; 1];
        match read_up_to(&mut self.input, &mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e) => {
                return Err(StreamError::new(
                    record_start,
                    None,
                    format!("cannot read trace: {e}"),
                ))
            }
        }
        let tag = tag[0];
        // Per-tag body length (after the tag byte): `at` + agent for
        // every kind, plus an extra f64 for arbitration/completion
        // records or an op byte + u32 count for coherence records.
        let body_len = match tag {
            TAG_REQUEST | TAG_TRANSFER => 12,
            TAG_ARBITRATION | TAG_END => 20,
            TAG_COHERENCE => 17,
            other => {
                return Err(StreamError::new(
                    record_start,
                    None,
                    format!("unknown binary record tag {other}"),
                ))
            }
        };
        let mut fixed = [0u8; 20];
        self.input.read_exact(&mut fixed[..body_len]).map_err(|_| {
            StreamError::new(
                record_start,
                None,
                "truncated binary record (stream ends mid-record)",
            )
        })?;
        let position = |msg: String| StreamError::new(record_start, None, msg);
        let at = finite_time(
            f64::from_le_bytes(fixed[..8].try_into().expect("8-byte slice")),
            "timestamp",
        )
        .map_err(position)?;
        let raw_agent = u32::from_le_bytes(fixed[8..12].try_into().expect("4-byte slice"));
        let agent = AgentId::try_from_raw(raw_agent, self.header.agents).map_err(|e| {
            StreamError::new(record_start, None, format!("bad agent identity: {e}"))
        })?;
        let extra_f64 = || f64::from_le_bytes(fixed[12..20].try_into().expect("8-byte slice"));
        let kind = match tag {
            TAG_REQUEST => TraceKind::Request { agent },
            TAG_ARBITRATION => TraceKind::ArbitrationStart {
                winner: agent,
                completes: finite_time(extra_f64(), "completion time").map_err(position)?,
            },
            TAG_TRANSFER => TraceKind::TransferStart { agent },
            TAG_END => TraceKind::TransferEnd {
                agent,
                wait: finite_duration(extra_f64(), "wait").map_err(position)?,
            },
            _ => {
                // TAG_COHERENCE (any other tag was rejected above).
                let op = coherence_op_from_code(fixed[12])
                    .ok_or_else(|| position(format!("unknown coherence op code {}", fixed[12])))?;
                let invalidated =
                    u32::from_le_bytes(fixed[13..17].try_into().expect("4-byte slice"));
                TraceKind::Coherence {
                    agent,
                    op,
                    invalidated,
                }
            }
        };
        self.offset = record_start + 1 + body_len as u64;
        Ok(Some(TraceEvent { at, kind }))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

/// Opens a trace file for incremental reading (buffered, auto-detected
/// framing).
///
/// # Errors
///
/// Propagates file-open errors; header failures arrive as
/// [`io::ErrorKind::InvalidData`] wrapping a [`StreamError`] (recover it
/// with [`stream_error`] to get the byte offset).
pub fn open_trace(path: &Path) -> io::Result<TraceReader<std::fs::File>> {
    let file = std::fs::File::open(path)?;
    TraceReader::new(file).map_err(Into::into)
}

/// `fill_buf`, retrying interrupted reads as `read_until` does.
fn fill<R: Read>(input: &mut BufReader<R>) -> io::Result<&[u8]> {
    loop {
        match input.fill_buf() {
            Ok(_) => return Ok(input.buffer()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A failed read at byte `offset`, on JSONL line `line`.
fn read_error(offset: u64, line: u64, e: &io::Error) -> StreamError {
    StreamError::new(offset, Some(line), format!("cannot read trace: {e}"))
}

/// Reads as many bytes as the stream can give, up to `buf.len()`;
/// returns how many. Unlike `read_exact`, a clean end-of-stream is not
/// an error.
fn read_up_to<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

fn parse_header(text: &str, offset: u64, line: Option<u64>) -> Result<TraceHeader, StreamError> {
    let value = serde_json::from_str(text)
        .map_err(|e| StreamError::new(offset, line, format!("bad header: {e}")))?;
    TraceHeader::from_value(&value)
        .map_err(|e| StreamError::new(offset, line, format!("bad header: {e}")))
}

/// Whether `value` is a valid trace duration or timestamp: finite and
/// non-negative (negative zero is allowed — it compares equal to zero).
pub(crate) fn is_valid_duration(value: f64) -> bool {
    !(value.is_nan() || value.is_infinite() || value < 0.0)
}

/// Validates a trace duration ([`is_valid_duration`]). Rejecting here
/// turns what would be a release-mode silent saturation (or debug-mode
/// panic) inside [`Time`] into a structured parse error with a byte
/// offset.
pub(crate) fn finite_duration(value: f64, what: &str) -> Result<f64, String> {
    if !is_valid_duration(value) {
        return Err(format!("non-finite or negative {what} {value}"));
    }
    Ok(value)
}

/// Validates and converts a trace timestamp to [`Time`].
pub(crate) fn finite_time(value: f64, what: &str) -> Result<Time, String> {
    finite_duration(value, what).map(Time::saturating)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinarySink, JsonlSink, TraceSink, TRACE_SCHEMA};

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    fn header() -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: "rr".to_string(),
            agents: 4,
            seed: 42,
            warmup_samples: 10,
            batches: 10,
            samples_per_batch: 5,
            confidence: 0.9,
        }
    }

    fn events() -> Vec<TraceEvent> {
        use busarb_types::CoherenceOp;
        let mut out = Vec::new();
        let mut t = 0.0f64;
        for i in 0..40u32 {
            t += 0.1 + f64::from(i) / 3.0;
            let agent = id(1 + i % 4);
            let kind = match i % 5 {
                0 => TraceKind::Request { agent },
                1 => TraceKind::ArbitrationStart {
                    winner: agent,
                    completes: Time::from(t + 0.5),
                },
                2 => TraceKind::TransferStart { agent },
                3 => TraceKind::TransferEnd {
                    agent,
                    wait: t / 7.0,
                },
                _ => TraceKind::Coherence {
                    agent,
                    op: match i % 3 {
                        0 => CoherenceOp::ReadMiss,
                        1 => CoherenceOp::WriteMiss,
                        _ => CoherenceOp::Upgrade,
                    },
                    invalidated: i % 4,
                },
            };
            out.push(TraceEvent {
                at: Time::from(t),
                kind,
            });
        }
        out
    }

    fn encode(format: TraceFormat) -> Vec<u8> {
        let mut bytes = Vec::new();
        match format {
            TraceFormat::Jsonl => {
                let mut sink = JsonlSink::new(&mut bytes, &header()).unwrap();
                for e in events() {
                    sink.record(&e).unwrap();
                }
                sink.finish().unwrap();
            }
            TraceFormat::Binary => {
                let mut sink = BinarySink::new(&mut bytes, &header()).unwrap();
                for e in events() {
                    sink.record(&e).unwrap();
                }
                sink.finish().unwrap();
            }
        }
        bytes
    }

    #[test]
    fn streaming_reader_round_trips_both_framings() {
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let bytes = encode(format);
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            assert_eq!(reader.format(), format);
            assert_eq!(*reader.header(), header());
            let mut seen = Vec::new();
            while let Some(e) = reader.next_event().unwrap() {
                seen.push(e);
            }
            assert_eq!(seen, events(), "{format}");
            assert_eq!(reader.offset(), bytes.len() as u64, "{format}");
            // Exhausted readers stay exhausted.
            assert_eq!(reader.next_event().unwrap(), None);
        }
    }

    /// Boundary waiting times must survive export → stream **bit
    /// exactly** in both framings (`to_bits`, not `==`, which cannot
    /// see the sign of zero). The JSONL sink writes `Display` forms —
    /// `-0` for negative zero, full decimal expansions for subnormals —
    /// and the serde shim must hand back the identical double; the
    /// binary sink carries the raw bits and the reader must not launder
    /// them through any lossy normalization.
    #[test]
    fn boundary_wait_values_round_trip_bit_exactly() {
        let waits = [
            -0.0,
            0.0,
            5e-324,                  // smallest subnormal
            f64::MIN_POSITIVE / 2.0, // mid-range subnormal
            f64::MIN_POSITIVE,       // smallest normal
            f64::EPSILON,
            0.1,       // classic shortest-form case
            1.0 / 3.0, // needs all 17 significant digits
        ];
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let mut bytes = Vec::new();
            let mut sink: Box<dyn TraceSink> = match format {
                TraceFormat::Jsonl => Box::new(JsonlSink::new(&mut bytes, &header()).unwrap()),
                TraceFormat::Binary => Box::new(BinarySink::new(&mut bytes, &header()).unwrap()),
            };
            for (i, &wait) in waits.iter().enumerate() {
                sink.record(&TraceEvent {
                    at: Time::from(1.0 + i as f64),
                    kind: TraceKind::TransferEnd { agent: id(1), wait },
                })
                .unwrap();
            }
            sink.finish().unwrap();
            drop(sink);

            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            for &wait in &waits {
                let event = reader.next_event().unwrap().expect("event present");
                let TraceKind::TransferEnd { wait: back, .. } = event.kind else {
                    panic!("{format}: wrong kind {event:?}");
                };
                assert_eq!(
                    back.to_bits(),
                    wait.to_bits(),
                    "{format}: {wait:?} came back as {back:?}"
                );
            }
            assert_eq!(reader.next_event().unwrap(), None);
        }
    }

    #[test]
    fn truncated_binary_record_reports_record_offset() {
        let bytes = encode(TraceFormat::Binary);
        let cut = bytes.len() - 3;
        let mut reader = TraceReader::new(&bytes[..cut]).unwrap();
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncation must not read as clean EOF"),
                Err(e) => break e,
            }
        };
        assert!(err.message.contains("truncated"), "{err}");
        // The error points at the start of the final, cut-short record.
        assert_eq!(
            err.offset,
            reader_record_starts(&bytes).last().copied().unwrap()
        );
        assert_eq!(err.line, None);
        // After the error the reader reads as exhausted, not as looping.
        assert_eq!(reader.next_event(), Ok(None));
    }

    /// Byte offsets of every binary record start, computed independently.
    fn reader_record_starts(bytes: &[u8]) -> Vec<u64> {
        let header_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        let mut at = 9 + header_len;
        let mut starts = Vec::new();
        while at < bytes.len() {
            starts.push(at as u64);
            let body = match bytes[at] {
                1 | 3 => 20,
                4 => 17,
                _ => 12,
            };
            at += 1 + body;
        }
        starts
    }

    /// One raw binary record: tag, timestamp, agent, then `rest` bytes.
    fn bin_record(tag: u8, at: f64, agent: u32, rest: &[u8]) -> Vec<u8> {
        let mut r = vec![tag];
        r.extend_from_slice(&at.to_le_bytes());
        r.extend_from_slice(&agent.to_le_bytes());
        r.extend_from_slice(rest);
        r
    }

    #[test]
    fn corrupt_binary_records_error_at_the_record_start() {
        let base = encode(TraceFormat::Binary);
        let start = base.len() as u64;
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (bin_record(9, 1.0, 1, &[]), "unknown binary record tag"),
            (
                bin_record(4, 1.0, 1, &[9, 0, 0, 0, 0]),
                "unknown coherence op code",
            ),
            // The header declares a roster of 4 agents; identity 5 and
            // the reserved identity 0 are both out of range.
            (bin_record(0, 1.0, 5, &[]), "bad agent identity"),
            (bin_record(0, 1.0, 0, &[]), "bad agent identity"),
            (
                bin_record(0, f64::NAN, 1, &[]),
                "non-finite or negative timestamp",
            ),
            (
                bin_record(0, -1.0, 1, &[]),
                "non-finite or negative timestamp",
            ),
            (
                bin_record(3, 1.0, 1, &f64::INFINITY.to_le_bytes()),
                "non-finite or negative wait",
            ),
            // A coherence record cut off mid-body.
            (bin_record(4, 1.0, 1, &[0, 0, 0]), "truncated"),
        ];
        for (record, fragment) in cases {
            let mut bytes = base.clone();
            bytes.extend_from_slice(&record);
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let err = loop {
                match reader.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("corrupt record must error ({fragment})"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.offset, start, "{fragment}");
            assert_eq!(err.line, None, "{fragment}");
            assert!(err.message.contains(fragment), "{fragment}: {err}");
        }
    }

    #[test]
    fn jsonl_rejects_out_of_roster_agents_and_bad_durations() {
        let base = encode(TraceFormat::Jsonl);
        for (line, fragment) in [
            (r#"{"at":1.0,"ev":"req","agent":5}"#, "bad agent identity"),
            (r#"{"at":1.0,"ev":"req","agent":0}"#, "bad agent identity"),
            (
                r#"{"at":-1.0,"ev":"req","agent":1}"#,
                "non-finite or negative timestamp",
            ),
            (
                r#"{"at":1.0,"ev":"end","agent":1,"wait":-0.5}"#,
                "non-finite or negative wait",
            ),
            (
                r#"{"at":1.0,"ev":"coh","agent":1,"op":"mystery","invalidated":0}"#,
                "unknown coherence op",
            ),
            (
                r#"{"at":1.0,"ev":"coh","agent":1,"op":"upgrade"}"#,
                "missing or mistyped `invalidated`",
            ),
        ] {
            let mut bytes = base.clone();
            let line_start = bytes.len() as u64;
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let err = loop {
                match reader.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("corrupt line must error ({fragment})"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.offset, line_start, "{fragment}");
            assert!(err.message.contains(fragment), "{fragment}: {err}");
        }
    }

    #[test]
    fn corrupt_jsonl_line_reports_line_and_offset() {
        let mut bytes = encode(TraceFormat::Jsonl);
        let line_start = bytes.len() as u64;
        bytes.extend_from_slice(b"{\"at\":1.0,\"ev\":\"nope\"}\n");
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("corrupt line must error"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.offset, line_start);
        assert_eq!(err.line, Some(42)); // header + 40 events + this one
        assert!(err.message.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn header_failures_locate_the_problem() {
        let empty = TraceReader::new(&b""[..]).unwrap_err();
        assert_eq!(empty.offset, 0);
        assert!(empty.message.contains("empty"), "{empty}");

        let bad_version = {
            let mut bytes = encode(TraceFormat::Binary);
            bytes[4] = 99;
            TraceReader::new(&bytes[..]).unwrap_err()
        };
        assert_eq!(bad_version.offset, 4);
        assert!(bad_version.message.contains("version"), "{bad_version}");

        let cut_header = {
            let bytes = encode(TraceFormat::Binary);
            TraceReader::new(&bytes[..20]).unwrap_err()
        };
        assert!(cut_header.message.contains("header"), "{cut_header}");

        let not_json = TraceReader::new(&b"not json at all\n"[..]).unwrap_err();
        assert_eq!(not_json.line, Some(1));
        assert!(not_json.message.contains("bad header"), "{not_json}");

        let wrong_schema = TraceReader::new(
            &br#"{"schema":"busarb-trace/999","protocol":"rr","agents":1,"seed":0,"warmup_samples":0,"batches":2,"samples_per_batch":1,"confidence":0.9}"#[..],
        )
        .unwrap_err();
        assert!(wrong_schema.message.contains("schema"), "{wrong_schema}");
    }

    #[test]
    fn implausible_binary_header_length_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = TraceReader::new(&bytes[..]).unwrap_err();
        assert!(err.message.contains("implausible"), "{err}");
    }

    #[test]
    fn stream_error_converts_to_io_error_and_back() {
        let original = StreamError::new(17, Some(3), "bad event");
        let io_err: io::Error = original.clone().into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(stream_error(&io_err), Some(&original));
        assert!(io_err.to_string().contains("byte offset 17"));
        assert!(stream_error(&io::Error::other("plain")).is_none());
    }

    #[test]
    fn open_trace_streams_a_file() {
        let dir = std::env::temp_dir().join("busarb-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t-{}.btrc", std::process::id()));
        std::fs::write(&path, encode(TraceFormat::Binary)).unwrap();
        let reader = open_trace(&path).unwrap();
        let collected: Result<Vec<_>, _> = reader.collect();
        assert_eq!(collected.unwrap(), events());
        std::fs::remove_file(&path).ok();
    }

    /// A reader handing out at most `chunk` bytes per call, each chunk
    /// preceded by an `Interrupted` error: with it, nearly every JSONL
    /// line straddles a refill of the reader's buffer and takes the
    /// copying path, and every read is retried once.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            let n = self.chunk.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Everything a reader yields for a stream: the events (as `Debug`
    /// text, which tells apart every non-NaN `f64`, `-0.0` included),
    /// then the error that ended it (`None` for a clean end).
    type Outcome = (Vec<String>, Option<StreamError>);

    fn read_outcome(input: impl Read) -> Outcome {
        let mut events = Vec::new();
        let mut reader = match TraceReader::new(input) {
            Ok(reader) => reader,
            Err(e) => return (events, Some(e)),
        };
        loop {
            let before = reader.offset();
            match reader.next_event() {
                Ok(Some(e)) => events.push(format!("{e:?}")),
                Ok(None) => return (events, None),
                Err(e) => {
                    if reader.format() == TraceFormat::Binary {
                        // A binary error names the start of the record
                        // being read.
                        assert_eq!(e.offset, before, "{e}");
                    }
                    return (events, Some(e));
                }
            }
        }
    }

    /// The JSONL outcome as the reader produced it before lines were
    /// decoded in place: one line per `read_until`, the header through
    /// `parse_header`, every event line through the general parser
    /// alone. Written over a slice, it shares none of the reader's line
    /// handling.
    fn reference_jsonl(bytes: &[u8]) -> Outcome {
        let mut events = Vec::new();
        if bytes.is_empty() {
            return (events, Some(StreamError::new(0, None, "empty trace")));
        }
        let mut lines = bytes.split_inclusive(|&b| b == b'\n');
        let first = lines.next().unwrap();
        let text = first.strip_suffix(b"\n").unwrap_or(first);
        let fail = |offset, line, msg: &str| Some(StreamError::new(offset, Some(line), msg));
        if text.iter().all(u8::is_ascii_whitespace) {
            return (events, fail(0, 1, "empty trace"));
        }
        let Ok(text) = core::str::from_utf8(text) else {
            return (
                events,
                fail(0, 1, "trace is neither binary (no magic) nor UTF-8 JSONL"),
            );
        };
        let header = match parse_header(text, 0, Some(1)) {
            Ok(header) => header,
            Err(e) => return (events, Some(e)),
        };
        let mut offset = first.len() as u64;
        for (number, line) in (2..).zip(lines) {
            let start = offset;
            offset += line.len() as u64;
            let text = line.strip_suffix(b"\n").unwrap_or(line);
            match crate::jsonl::decode_general(text, header.agents) {
                Ok(Some(e)) => events.push(format!("{e:?}")),
                Ok(None) => {}
                Err(msg) => return (events, fail(start, number, &msg)),
            }
        }
        (events, None)
    }

    /// Holds the reader, over a slice and over a trickling reader, to
    /// the reference outcome; returns it.
    fn assert_jsonl_matches_reference(bytes: &[u8]) -> Outcome {
        let expected = reference_jsonl(bytes);
        let shown = String::from_utf8_lossy(bytes);
        assert_eq!(read_outcome(bytes), expected, "{shown}");
        for chunk in [1, 7] {
            let trickle = Trickle {
                bytes,
                chunk,
                interrupt: false,
            };
            assert_eq!(read_outcome(trickle), expected, "chunk {chunk}: {shown}");
        }
        if let Some(e) = &expected.1 {
            let offset = usize::try_from(e.offset).unwrap();
            assert!(
                offset == 0 || bytes[offset - 1] == b'\n',
                "{e} is not at a line start"
            );
        }
        expected
    }

    /// Byte ranges of every JSONL line after the header.
    fn jsonl_event_lines(bytes: &[u8]) -> Vec<core::ops::Range<usize>> {
        let mut ranges = Vec::new();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                ranges.push(start..i);
                start = i + 1;
            }
        }
        ranges.split_off(1)
    }

    #[test]
    fn jsonl_truncation_at_every_offset_matches_the_reference() {
        let bytes = encode(TraceFormat::Jsonl);
        let header_len = jsonl_event_lines(&bytes)[0].start;
        for cut in 0..=bytes.len() {
            let (events, error) = assert_jsonl_matches_reference(&bytes[..cut]);
            // A cut inside the header or inside an event line fails; a
            // cut on either side of a newline is a clean, shorter trace.
            let at_boundary = cut + 1 >= header_len
                && (cut == bytes.len() || bytes[cut] == b'\n' || bytes[cut - 1] == b'\n');
            assert_eq!(error.is_none(), at_boundary, "cut at {cut}: {error:?}");
            assert!(events.len() <= 40);
        }
    }

    #[test]
    fn jsonl_out_of_roster_agents_fail_at_their_line() {
        let bytes = encode(TraceFormat::Jsonl);
        for (k, range) in jsonl_event_lines(&bytes).into_iter().enumerate() {
            let line = &bytes[range.clone()];
            let key: &[u8] = if line.windows(8).any(|w| w == b"\"winner\"") {
                b"\"winner\":"
            } else {
                b"\"agent\":"
            };
            let at = line.windows(key.len()).position(|w| w == key).unwrap() + key.len();
            for bad in ["5", "0", "4294967296"] {
                let mut mutated = bytes[..range.start + at].to_vec();
                mutated.extend_from_slice(bad.as_bytes());
                mutated.extend_from_slice(&bytes[range.start + at + 1..]);
                let (events, error) = assert_jsonl_matches_reference(&mutated);
                let error = error.expect("an out-of-roster agent fails");
                assert_eq!(events.len(), k, "{error}");
                assert_eq!(error.offset, range.start as u64);
                assert_eq!(error.line, Some(k as u64 + 2));
            }
        }
    }

    #[test]
    fn btrc_truncation_and_out_of_roster_agents_fail_at_the_record() {
        let bytes = encode(TraceFormat::Binary);
        let starts = reader_record_starts(&bytes);
        for cut in 0..=bytes.len() {
            let (events, error) = read_outcome(&bytes[..cut]);
            let whole_records = starts.iter().filter(|&&s| s < cut as u64).count();
            match error {
                None => {
                    assert!(
                        cut == bytes.len() || starts.contains(&(cut as u64)),
                        "cut {cut}"
                    );
                    assert_eq!(events.len(), whole_records);
                }
                Some(e) if cut as u64 <= starts[0] => assert!(e.offset <= starts[0], "{e}"),
                Some(e) => {
                    assert_eq!(e.offset, starts[whole_records - 1], "cut {cut}: {e}");
                    assert!(e.message.contains("truncated"), "{e}");
                    assert_eq!(events.len(), whole_records - 1);
                }
            }
        }
        for (k, &start) in starts.iter().enumerate() {
            let at = usize::try_from(start).unwrap() + 9;
            for bad in [5u32, 0, u32::MAX] {
                let mut mutated = bytes.clone();
                mutated[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                let (events, error) = read_outcome(&mutated[..]);
                let error = error.expect("an out-of-roster agent fails");
                assert_eq!((error.offset, error.line), (start, None));
                assert!(error.message.contains("bad agent identity"), "{error}");
                assert_eq!(events.len(), k);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(128))]

        /// Bit flips anywhere in a sink-written stream: the JSONL reader
        /// matches the reference outcome exactly, and neither framing
        /// panics or reports an error away from the record or line it
        /// was reading.
        #[test]
        fn bit_flips_fail_cleanly_in_both_framings(
            flips in proptest::collection::vec((proptest::prelude::any::<u32>(), 0u8..8), 1..4),
        ) {
            for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
                let mut bytes = encode(format);
                for &(at, bit) in &flips {
                    let at = at as usize % bytes.len();
                    bytes[at] ^= 1 << bit;
                }
                match format {
                    TraceFormat::Jsonl => {
                        assert_jsonl_matches_reference(&bytes);
                    }
                    TraceFormat::Binary => {
                        read_outcome(&bytes[..]);
                    }
                }
            }
        }
    }

    /// A JSONL line of `len` bytes: `open` + spaces + `close`.
    fn padded_line(open: &str, close: &str, len: usize) -> Vec<u8> {
        let mut line = open.as_bytes().to_vec();
        line.resize(len - close.len(), b' ');
        line.extend_from_slice(close.as_bytes());
        line
    }

    /// The line cap is exact and the same for the header line (whose
    /// first four bytes are sniffed before it is read) and event lines:
    /// `MAX_LINE_BYTES` bytes before the newline are accepted, one more
    /// is rejected at the start of the line.
    #[test]
    fn the_line_cap_is_exact_for_header_and_event_lines() {
        let json = serde_json::to_string(&header()).unwrap();
        let open = json.strip_suffix('}').unwrap();
        for len in [MAX_LINE_BYTES - 1, MAX_LINE_BYTES, MAX_LINE_BYTES + 1] {
            let mut bytes = padded_line(open, "}", len);
            bytes.push(b'\n');
            let result = TraceReader::new(&bytes[..]);
            if len <= MAX_LINE_BYTES {
                let mut reader = result.unwrap();
                assert_eq!(*reader.header(), header());
                assert_eq!(reader.next_event(), Ok(None));
                assert_eq!(reader.offset(), bytes.len() as u64);
            } else {
                let err = result.unwrap_err();
                assert_eq!((err.offset, err.line), (0, Some(1)), "{err}");
                assert!(err.message.contains("line exceeds"), "{err}");
            }
        }
        let base = encode(TraceFormat::Jsonl);
        for newline in [true, false] {
            for len in [MAX_LINE_BYTES - 1, MAX_LINE_BYTES, MAX_LINE_BYTES + 1] {
                let mut bytes = base.clone();
                bytes.extend_from_slice(&padded_line(
                    r#"{"at":1.5,"ev":"req","agent":1"#,
                    "}",
                    len,
                ));
                if newline {
                    bytes.push(b'\n');
                }
                let mut reader = TraceReader::new(&bytes[..]).unwrap();
                for _ in 0..40 {
                    reader.next_event().unwrap().unwrap();
                }
                let last = reader.next_event();
                if len <= MAX_LINE_BYTES {
                    let event = last.unwrap().unwrap();
                    assert_eq!(event.kind, TraceKind::Request { agent: id(1) });
                    assert_eq!(reader.next_event(), Ok(None));
                    assert_eq!(reader.offset(), bytes.len() as u64);
                } else {
                    let err = last.unwrap_err();
                    assert_eq!(err.offset, base.len() as u64, "{err}");
                    assert_eq!(err.line, Some(42));
                    assert!(err.message.contains("line exceeds"), "{err}");
                }
            }
        }
    }

    /// Lines that straddle refills of the reader's buffer decode the
    /// same as lines read in place, over a stream several buffers long.
    #[test]
    fn lines_straddling_buffer_refills_decode_in_order() {
        let mut bytes = Vec::new();
        let mut sink = JsonlSink::new(&mut bytes, &header()).unwrap();
        let many: Vec<TraceEvent> = (0..30).flat_map(|_| events()).collect();
        for e in &many {
            sink.record(e).unwrap();
        }
        drop(sink);
        assert!(
            bytes.len() > 4 * 8192,
            "the stream spans several buffer fills"
        );
        let (events, error) = assert_jsonl_matches_reference(&bytes);
        assert_eq!(error, None);
        let expected: Vec<String> = many.iter().map(|e| format!("{e:?}")).collect();
        assert_eq!(events, expected);
    }
}
