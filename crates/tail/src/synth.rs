//! Synthetic trace streams — benchmark and test support.
//!
//! [`SyntheticTrace`] is a [`Read`] that produces a valid
//! `busarb-trace/1` stream of any length, in either framing, *on the
//! fly*: the real [`BinarySink`] or [`JsonlSink`] encodes one
//! transaction at a time into a small scratch buffer, so generating a
//! ten-million-event stream neither touches disk nor materializes
//! anything proportional to its length, and the bytes are exactly what
//! an exporting run writes. `bench_analyze` feeds these to the pipeline
//! to measure pure analysis throughput, and the bounded-memory
//! regression test uses them to prove peak heap is independent of trace
//! length.

use std::io::Read;

use busarb_obs::{BinarySink, JsonlSink, TraceFormat, TraceHeader, TraceSink};
use busarb_types::{AgentId, Time, TraceEvent, TraceKind};

/// The sink encoding the stream, writing into the scratch buffer.
enum Encoder {
    Binary(BinarySink<Vec<u8>>),
    Jsonl(JsonlSink<Vec<u8>>),
}

impl Encoder {
    fn new(format: TraceFormat, header: &TraceHeader) -> std::io::Result<Self> {
        Ok(match format {
            TraceFormat::Binary => Encoder::Binary(BinarySink::new(Vec::new(), header)?),
            TraceFormat::Jsonl => Encoder::Jsonl(JsonlSink::new(Vec::new(), header)?),
        })
    }

    fn sink(&mut self) -> &mut dyn TraceSink {
        match self {
            Encoder::Binary(sink) => sink,
            Encoder::Jsonl(sink) => sink,
        }
    }

    fn buffer(&mut self) -> &mut Vec<u8> {
        match self {
            Encoder::Binary(sink) => sink.get_mut(),
            Encoder::Jsonl(sink) => sink.get_mut(),
        }
    }
}

/// A synthetic trace byte stream: `transactions` four-event bus
/// transactions (request, arbitration, transfer start, completion) over
/// the header's agent roster, round-robin. Timestamps are not whole
/// numbers, so every JSONL line is in the sink's canonical form with
/// full-length decimals, as in a real export.
pub struct SyntheticTrace {
    /// The sink, whose buffer holds the chunk being served (the header
    /// first, then one transaction's records at a time).
    encoder: Encoder,
    pos: usize,
    next: u64,
    transactions: u64,
    agents: u32,
}

impl SyntheticTrace {
    /// Builds the generator. Only the header is encoded up front; a
    /// header with no agents yields an error on the first read past it.
    #[must_use]
    pub fn new(format: TraceFormat, header: &TraceHeader, transactions: u64) -> Self {
        SyntheticTrace {
            encoder: Encoder::new(format, header).expect("writing to a Vec cannot fail"),
            pos: 0,
            next: 0,
            transactions,
            agents: header.agents,
        }
    }

    /// Trace events this stream will yield (four per transaction).
    #[must_use]
    pub fn events(&self) -> u64 {
        4 * self.transactions
    }

    /// Replaces the scratch buffer's contents with the next
    /// transaction's records; `false` once every transaction is out.
    fn encode_next(&mut self) -> std::io::Result<bool> {
        if self.next >= self.transactions {
            return Ok(false);
        }
        let i = self.next;
        self.next += 1;
        self.encoder.buffer().clear();
        self.pos = 0;
        let t = i as f64 + 1.0 / 3.0;
        let raw = 1 + i.checked_rem(u64::from(self.agents)).unwrap_or(0) as u32;
        let agent = AgentId::try_from_raw(raw, self.agents).map_err(std::io::Error::other)?;
        let sink = self.encoder.sink();
        let at = |at: f64, kind| TraceEvent {
            at: Time::saturating(at),
            kind,
        };
        sink.record(&at(t, TraceKind::Request { agent }))?;
        let completes = Time::saturating(t + 0.25);
        sink.record(&at(
            t,
            TraceKind::ArbitrationStart {
                winner: agent,
                completes,
            },
        ))?;
        sink.record(&at(t + 0.25, TraceKind::TransferStart { agent }))?;
        sink.record(&at(t + 1.0, TraceKind::TransferEnd { agent, wait: 0.75 }))?;
        Ok(true)
    }
}

impl Read for SyntheticTrace {
    /// Fills `buf` across transaction boundaries, as a file read would,
    /// so JSONL lines straddle the reader's buffer refills.
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            if self.pos >= self.encoder.buffer().len() && !self.encode_next()? {
                break;
            }
            let pos = self.pos;
            let chunk = self.encoder.buffer();
            let n = (buf.len() - filled).min(chunk.len() - pos);
            buf[filled..filled + n].copy_from_slice(&chunk[pos..pos + n]);
            self.pos += n;
            filled += n;
        }
        Ok(filled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_obs::{TraceReader, TRACE_SCHEMA};

    #[test]
    fn synthetic_stream_parses_end_to_end() {
        let header = TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: "rr".to_string(),
            agents: 3,
            seed: 0,
            warmup_samples: 0,
            batches: 2,
            samples_per_batch: 2,
            confidence: 0.9,
        };
        let mut decoded = Vec::new();
        for format in [TraceFormat::Binary, TraceFormat::Jsonl] {
            let stream = SyntheticTrace::new(format, &header, 25);
            assert_eq!(stream.events(), 100);
            let mut reader = TraceReader::new(stream).unwrap();
            assert_eq!(reader.format(), format);
            assert_eq!(reader.header().agents, 3);
            let mut events = Vec::new();
            while let Some(e) = reader.next_event().unwrap() {
                assert!(e.at.as_f64() >= 0.0);
                events.push(e);
            }
            assert_eq!(events.len(), 100);
            decoded.push(events);
        }
        assert_eq!(
            decoded[0], decoded[1],
            "both framings carry the same events"
        );
    }
}
