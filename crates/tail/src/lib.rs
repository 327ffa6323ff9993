//! Streaming trace analytics for `busarb-trace/1` exports.
//!
//! The observability layer (`busarb-obs`) can *export* a lossless trace
//! of every simulated bus event; this crate is the other half of that
//! story — a bounded-memory analytics engine that consumes those traces
//! incrementally, in either framing (JSONL or BTRC binary,
//! auto-detected), without ever materializing the event list. Traces
//! from production-scale runs are far larger than RAM; every analyzer
//! here keeps state that is O(agents + histogram buckets), so peak
//! memory is independent of trace length and throughput is bounded by
//! parsing, not analysis (see `BENCH_analyze.json`).
//!
//! A [`Pipeline`] fans each decoded event out to four analyzers:
//!
//! * **replay** (`busarb_obs::ReplayBuilder`) — the simulator's own
//!   accounting arithmetic, reproducing the live run's mean wait,
//!   confidence interval, and utilization bit-for-bit;
//! * **usage** ([`BusUsage`]) — profiler-style time classification into
//!   busy / backpressure / free / idle, plus delay and burst-length
//!   histograms on the shared log-bucket resolution;
//! * **fairness** ([`FairnessTracker`]) — per-agent grant shares and
//!   Jain's index over a sliding window of grants;
//! * **a protocol adapter** ([`adapter_for`]) — the family-specific
//!   quantity: round-robin rotation-step occupancy, FCFS counter lag,
//!   or assured-access bypass counts.
//!
//! Three front doors drive the pipeline: `busarb analyze FILE...` (one
//! deterministic report per trace, text or JSON), `repro inspect` (the
//! experiments harness's cross-check, rewired onto this streaming
//! path), and `busarb serve` ([`serve`]) — a long-running process that
//! ingests several trace streams concurrently and answers aggregate
//! queries over a line-oriented protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapters;
mod fairness;
pub mod serve;
pub mod synth;
mod usage;

pub use adapters::{
    adapter_for, AdapterMetric, AdapterReport, BypassCounts, FcfsLag, ProtocolAdapter, RrRotation,
};
pub use fairness::{FairnessReport, FairnessTracker, FAIRNESS_STRIDE, FAIRNESS_WINDOW};
pub use usage::{BusUsage, UsageReport};

use std::io::Read;
use std::path::Path;

use busarb_obs::{ReplayBuilder, TraceFormat, TraceHeader, TraceReader};
use busarb_types::{TraceEvent, TraceKind};
use serde::Serialize;

/// Schema tag written into every analysis report.
pub const ANALYSIS_SCHEMA: &str = "busarb-analysis/1";

/// Replay-derived aggregates in serializable form: the fields of
/// `busarb_obs::Replay` that the report exposes.
#[derive(Clone, Debug, Serialize)]
pub struct ReplaySummary {
    /// Batch-means point estimate of the mean wait (absent when the
    /// trace has too few post-warm-up completions to fill every batch).
    pub mean_wait: Option<f64>,
    /// Half-width of the batch-means confidence interval.
    pub halfwidth: Option<f64>,
    /// Measured (post-warm-up, within-budget) completions.
    pub samples: u64,
    /// Bus utilization over the measurement interval.
    pub utilization: f64,
    /// Simulated time spanned by the measurement interval.
    pub measured_time: f64,
    /// Request-line assertions (whole trace).
    pub requests: u64,
    /// Grants (whole trace).
    pub grants: u64,
    /// Transfer starts (whole trace).
    pub transfers: u64,
    /// Completions (whole trace).
    pub completions: u64,
    /// Completions consumed by the warm-up discard.
    pub warmup_consumed: u64,
    /// Measured completions per agent, by roster index.
    pub per_agent_samples: Vec<u64>,
}

impl ReplaySummary {
    fn of(replay: &busarb_obs::Replay) -> Self {
        ReplaySummary {
            mean_wait: replay.mean_wait.as_ref().map(|e| e.mean),
            halfwidth: replay.mean_wait.as_ref().map(|e| e.halfwidth),
            samples: replay.samples(),
            utilization: replay.utilization,
            measured_time: replay.measured_time,
            requests: replay.requests,
            grants: replay.grants,
            transfers: replay.transfers,
            completions: replay.completions,
            warmup_consumed: replay.warmup_consumed,
            per_agent_samples: replay.per_agent_samples.clone(),
        }
    }
}

/// The complete analysis of one trace stream.
#[derive(Clone, Debug, Serialize)]
pub struct AnalysisReport {
    /// Schema tag ([`ANALYSIS_SCHEMA`]).
    pub schema: String,
    /// Stream name (file path or serve-mode stream tag).
    pub source: String,
    /// On-disk framing the stream used (`jsonl` or `binary`).
    pub format: String,
    /// Protocol slug from the trace header.
    pub protocol: String,
    /// Agents in the roster.
    pub agents: u32,
    /// Trace events consumed.
    pub events: u64,
    /// Replay-derived aggregates (matches the live run bit-for-bit).
    pub replay: ReplaySummary,
    /// Busy/backpressure/free/idle time split and distributions.
    pub usage: UsageReport,
    /// Grant-share fairness over sliding windows.
    pub fairness: FairnessReport,
    /// Protocol-family-specific view.
    pub adapter: AdapterReport,
}

impl AnalysisReport {
    /// Renders the report as compact JSON (one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// Renders the report as a deterministic human-readable block.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: protocol={} agents={} format={} events={}",
            self.source, self.protocol, self.agents, self.format, self.events
        );
        match (self.replay.mean_wait, self.replay.halfwidth) {
            (Some(mean), Some(hw)) => {
                let _ = writeln!(
                    out,
                    "  replay   mean_wait={mean:.6} ±{hw:.6} utilization={:.6} samples={}",
                    self.replay.utilization, self.replay.samples
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  replay   mean_wait=n/a (incomplete batches) utilization={:.6} samples={}",
                    self.replay.utilization, self.replay.samples
                );
            }
        }
        let _ = writeln!(
            out,
            "  counts   requests={} grants={} transfers={} completions={}",
            self.replay.requests,
            self.replay.grants,
            self.replay.transfers,
            self.replay.completions
        );
        let span = if self.usage.span > 0.0 {
            self.usage.span
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "  usage    busy={:.1}% backpressure={:.1}% free={:.1}% idle={:.1}% (span {:.1})",
            100.0 * self.usage.busy / span,
            100.0 * self.usage.backpressure / span,
            100.0 * self.usage.free / span,
            100.0 * self.usage.idle / span,
            self.usage.span
        );
        let _ = writeln!(
            out,
            "  delay    mean={:.6} max={:.6} n={}   bursts n={} mean_len={:.2}",
            self.usage.delay.mean(),
            if self.usage.delay.count == 0 {
                0.0
            } else {
                self.usage.delay.max
            },
            self.usage.delay.count,
            self.usage.bursts,
            self.usage.burst_len.mean()
        );
        let _ = writeln!(
            out,
            "  fairness jain_overall={:.4} jain_min={:.4} jain_mean={:.4} windows={} (w={})",
            self.fairness.jain_overall,
            self.fairness.jain_min,
            self.fairness.jain_mean,
            self.fairness.jain_windows,
            self.fairness.window
        );
        let _ = write!(out, "  {:8}", self.adapter.adapter);
        for m in &self.adapter.metrics {
            let _ = write!(out, " {}={:.4}", m.name, m.value);
        }
        let _ = writeln!(out);
        out
    }
}

/// The streaming analysis pipeline: replay + usage + fairness + the
/// protocol adapter, fed one event at a time.
pub struct Pipeline {
    header: TraceHeader,
    replay: ReplayBuilder,
    usage: BusUsage,
    fairness: FairnessTracker,
    adapter: Box<dyn ProtocolAdapter>,
    events: u64,
}

impl Pipeline {
    /// Builds the pipeline for one trace stream from its header.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] when the header's
    /// batch-means configuration is invalid.
    pub fn new(header: &TraceHeader) -> std::io::Result<Self> {
        Ok(Pipeline {
            header: header.clone(),
            replay: ReplayBuilder::new(header)?,
            usage: BusUsage::new(),
            fairness: FairnessTracker::new(header.agents),
            adapter: adapter_for(&header.protocol, header.agents),
            events: 0,
        })
    }

    /// Folds one event into every analyzer. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] when the event names
    /// an agent outside the header's roster.
    pub fn push(&mut self, event: &TraceEvent) -> std::io::Result<()> {
        self.replay.push(event)?;
        self.usage.push(event);
        if let TraceKind::ArbitrationStart { winner, .. } = event.kind {
            self.fairness.on_grant(winner.index());
        }
        self.adapter.on_event(event);
        self.events += 1;
        Ok(())
    }

    /// Events consumed so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Snapshots the current state into a report without consuming the
    /// pipeline (serve mode publishes these while ingest continues).
    #[must_use]
    pub fn report(&self, source: &str, format: TraceFormat) -> AnalysisReport {
        AnalysisReport {
            schema: ANALYSIS_SCHEMA.to_string(),
            source: source.to_string(),
            format: format.to_string(),
            protocol: self.header.protocol.clone(),
            agents: self.header.agents,
            events: self.events,
            replay: ReplaySummary::of(&self.replay.clone().finish()),
            usage: self.usage.clone().finish(),
            fairness: self.fairness.clone().finish(),
            adapter: self.adapter.report(),
        }
    }
}

/// Drives a [`TraceReader`] to exhaustion through a [`Pipeline`].
///
/// # Errors
///
/// Propagates structured stream errors (`busarb_obs::StreamError`,
/// carrying the byte offset of the failure) wrapped in
/// [`std::io::Error`], and `InvalidData` errors from the analyzers.
pub fn analyze<R: Read>(
    source: &str,
    reader: &mut TraceReader<R>,
) -> std::io::Result<AnalysisReport> {
    let mut pipeline = Pipeline::new(reader.header())?;
    while let Some(event) = reader.next_event()? {
        pipeline.push(&event)?;
    }
    Ok(pipeline.report(source, reader.format()))
}

/// Opens a trace file and analyzes it end to end, streaming.
///
/// # Errors
///
/// Propagates open/parse errors; parse failures carry the byte offset
/// (recover it with `busarb_obs::stream_error`).
pub fn analyze_path(path: &Path) -> std::io::Result<AnalysisReport> {
    let mut reader = busarb_obs::open_trace(path)?;
    analyze(&path.display().to_string(), &mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_obs::{JsonlSink, TraceSink, TRACE_SCHEMA};
    use busarb_types::{AgentId, Time};

    fn header(protocol: &str, agents: u32) -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: protocol.to_string(),
            agents,
            seed: 7,
            warmup_samples: 2,
            batches: 2,
            samples_per_batch: 2,
            confidence: 0.9,
        }
    }

    /// A saturated alternating two-agent trace with `n` transactions.
    fn synthetic(n: usize) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            let t = i as f64;
            let agent = AgentId::new(1 + (i as u32) % 2).unwrap();
            events.push(TraceEvent {
                at: Time::from(t),
                kind: TraceKind::Request { agent },
            });
            events.push(TraceEvent {
                at: Time::from(t),
                kind: TraceKind::ArbitrationStart {
                    winner: agent,
                    completes: Time::from(t + 0.25),
                },
            });
            events.push(TraceEvent {
                at: Time::from(t + 0.25),
                kind: TraceKind::TransferStart { agent },
            });
            events.push(TraceEvent {
                at: Time::from(t + 1.0),
                kind: TraceKind::TransferEnd { agent, wait: 0.75 },
            });
        }
        events
    }

    #[test]
    fn pipeline_matches_whole_file_replay() {
        let h = header("rr", 2);
        let events = synthetic(10);
        let whole = busarb_obs::replay(&h, &events).unwrap();
        let mut p = Pipeline::new(&h).unwrap();
        for e in &events {
            p.push(e).unwrap();
        }
        let r = p.report("synthetic", TraceFormat::Jsonl);
        assert_eq!(r.replay.samples, whole.samples());
        assert_eq!(r.replay.utilization, whole.utilization);
        assert_eq!(r.replay.completions, whole.completions);
        assert_eq!(r.events, 40);
        assert_eq!(r.adapter.adapter, "rr-rotation");
        assert!(r.fairness.jain_overall > 0.99);
    }

    #[test]
    fn analyze_streams_a_jsonl_trace() {
        let h = header("fcfs-1", 2);
        let mut sink = JsonlSink::new(Vec::new(), &h).unwrap();
        for e in synthetic(5) {
            sink.record(&e).unwrap();
        }
        sink.finish().unwrap();
        let bytes = sink.into_inner();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let r = analyze("mem", &mut reader).unwrap();
        assert_eq!(r.protocol, "fcfs-1");
        assert_eq!(r.format, "jsonl");
        assert_eq!(r.events, 20);
        assert_eq!(r.adapter.adapter, "fcfs-lag");
        let json = r.to_json();
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(
            v.get("schema").and_then(serde::Value::as_str),
            Some(ANALYSIS_SCHEMA)
        );
        let text = r.render_text();
        assert!(text.contains("fcfs-lag"));
        assert!(text.contains("usage"));
    }
}
