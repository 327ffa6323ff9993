//! `busarb serve`: a long-running analytics process over several trace
//! streams.
//!
//! One ingest thread per stream drives the same bounded-memory
//! [`Pipeline`] as `busarb analyze`, publishing a progress counter and a
//! partial report every [`PROGRESS_STRIDE`] events into shared state.
//! Queries arrive as single lines (over stdin or a Unix socket) and are
//! answered with single JSON lines:
//!
//! ```text
//! streams            -> status of every stream, tag-sorted
//! report <stream>    -> the stream's latest AnalysisReport
//! aggregate          -> cross-stream aggregate, folded in tag order
//! drain              -> block until every ingest finishes, then status
//! help               -> command list
//! quit               -> close this session (socket: this connection)
//! shutdown           -> stop the server (socket mode)
//! ```
//!
//! Aggregation folds streams in tag-sorted (`BTreeMap`) order — the
//! same merge discipline the experiments harness uses for sweep rollups
//! — so the aggregate is deterministic no matter which ingest thread
//! finished first.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

use serde::Serialize;

use crate::{AnalysisReport, Pipeline, UsageReport, ANALYSIS_SCHEMA};

/// Events between progress/partial-report publications from an ingest
/// thread.
pub const PROGRESS_STRIDE: u64 = 65_536;

/// One stream's externally visible status.
#[derive(Clone, Debug, Serialize)]
pub struct StreamStatus {
    /// Stream tag.
    pub stream: String,
    /// Events ingested so far (updated every [`PROGRESS_STRIDE`]).
    pub events: u64,
    /// Whether ingest has finished (successfully or not).
    pub done: bool,
    /// Ingest failure, if any (carries the byte offset for parse
    /// errors).
    pub error: Option<String>,
}

/// Cross-stream aggregate: counters sum, usage merges bucketwise.
#[derive(Clone, Debug, Serialize)]
pub struct AggregateReport {
    /// Schema tag ([`ANALYSIS_SCHEMA`]).
    pub schema: String,
    /// Streams being served.
    pub streams: u64,
    /// Streams whose ingest has finished.
    pub done: u64,
    /// Streams whose ingest failed.
    pub errors: u64,
    /// Events ingested across all streams.
    pub events: u64,
    /// Requests across all streams (from published reports).
    pub requests: u64,
    /// Grants across all streams.
    pub grants: u64,
    /// Completions across all streams.
    pub completions: u64,
    /// Distinct protocol slugs observed, sorted.
    pub protocols: Vec<String>,
    /// Merged busy/backpressure/free/idle split and distributions.
    pub usage: UsageReport,
}

struct Slot {
    events: u64,
    done: bool,
    error: Option<String>,
    report: Option<AnalysisReport>,
}

/// Shared server state: one slot per stream plus a condition variable
/// ingest threads signal on completion (`drain` waits on it).
pub struct ServeState {
    slots: Mutex<BTreeMap<String, Slot>>,
    finished: Condvar,
}

impl ServeState {
    /// Creates the state with one empty slot per stream tag.
    #[must_use]
    pub fn new(streams: &[(String, PathBuf)]) -> Self {
        let slots = streams
            .iter()
            .map(|(name, _)| {
                (
                    name.clone(),
                    Slot {
                        events: 0,
                        done: false,
                        error: None,
                        report: None,
                    },
                )
            })
            .collect();
        ServeState {
            slots: Mutex::new(slots),
            finished: Condvar::new(),
        }
    }

    fn publish(&self, name: &str, events: u64, report: Option<AnalysisReport>) {
        let mut slots = self.slots.lock().expect("serve state lock");
        if let Some(slot) = slots.get_mut(name) {
            slot.events = events;
            if report.is_some() {
                slot.report = report;
            }
        }
    }

    fn finish(
        &self,
        name: &str,
        events: u64,
        report: Option<AnalysisReport>,
        error: Option<String>,
    ) {
        let mut slots = self.slots.lock().expect("serve state lock");
        if let Some(slot) = slots.get_mut(name) {
            slot.events = events;
            slot.done = true;
            slot.error = error;
            if report.is_some() {
                slot.report = report;
            }
        }
        drop(slots);
        self.finished.notify_all();
    }

    fn statuses(slots: &BTreeMap<String, Slot>) -> Vec<StreamStatus> {
        slots
            .iter()
            .map(|(name, slot)| StreamStatus {
                stream: name.clone(),
                events: slot.events,
                done: slot.done,
                error: slot.error.clone(),
            })
            .collect()
    }
}

/// What the query loop should do after answering one line.
enum Outcome {
    /// Keep serving this session.
    Continue,
    /// Close this session (stdin: exit; socket: drop the connection).
    Quit,
    /// Stop the whole server (socket mode).
    Shutdown,
}

/// Answers one query line against the shared state.
fn handle(state: &ServeState, line: &str) -> (String, Outcome) {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    let arg = parts.next();
    match (cmd, arg) {
        ("streams", None) => {
            let slots = state.slots.lock().expect("serve state lock");
            (json(&ServeState::statuses(&slots)), Outcome::Continue)
        }
        ("report", Some(name)) => {
            let slots = state.slots.lock().expect("serve state lock");
            let reply = match slots.get(name) {
                Some(slot) => match &slot.report {
                    Some(report) => report.to_json(),
                    None => error_json(&format!("stream `{name}` has no report yet")),
                },
                None => error_json(&format!("unknown stream `{name}`")),
            };
            (reply, Outcome::Continue)
        }
        ("aggregate", None) => {
            let slots = state.slots.lock().expect("serve state lock");
            (json(&aggregate(&slots)), Outcome::Continue)
        }
        ("drain", None) => {
            let mut slots = state.slots.lock().expect("serve state lock");
            while slots.values().any(|s| !s.done) {
                slots = state.finished.wait(slots).expect("serve state lock");
            }
            (json(&ServeState::statuses(&slots)), Outcome::Continue)
        }
        ("help", None) => (
            "{\"commands\":[\"streams\",\"report <stream>\",\"aggregate\",\"drain\",\"help\",\"quit\",\"shutdown\"]}"
                .to_string(),
            Outcome::Continue,
        ),
        ("quit", None) => (error_json("bye"), Outcome::Quit),
        ("shutdown", None) => (error_json("shutting down"), Outcome::Shutdown),
        _ => (
            error_json(&format!("unknown command `{line}` (try `help`)")),
            Outcome::Continue,
        ),
    }
}

/// Folds every published report, in tag-sorted order.
fn aggregate(slots: &BTreeMap<String, Slot>) -> AggregateReport {
    let mut agg = AggregateReport {
        schema: ANALYSIS_SCHEMA.to_string(),
        streams: slots.len() as u64,
        done: 0,
        errors: 0,
        events: 0,
        requests: 0,
        grants: 0,
        completions: 0,
        protocols: Vec::new(),
        usage: UsageReport::empty(),
    };
    for slot in slots.values() {
        agg.events += slot.events;
        if slot.done {
            agg.done += 1;
        }
        if slot.error.is_some() {
            agg.errors += 1;
        }
        if let Some(report) = &slot.report {
            agg.requests += report.replay.requests;
            agg.grants += report.replay.grants;
            agg.completions += report.replay.completions;
            agg.usage.merge(&report.usage);
            if !agg.protocols.iter().any(|p| p == &report.protocol) {
                agg.protocols.push(report.protocol.clone());
            }
        }
    }
    agg.protocols.sort();
    agg
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| error_json(&format!("serialize: {e}")))
}

fn error_json(message: &str) -> String {
    json(&ErrorReply {
        error: message.to_string(),
    })
}

#[derive(Serialize)]
struct ErrorReply {
    error: String,
}

/// Ingests one stream file through a [`Pipeline`], publishing progress.
fn ingest(state: &ServeState, name: &str, path: &Path) {
    let fail = |events, report, e: std::io::Error| {
        state.finish(name, events, report, Some(e.to_string()));
    };
    let mut reader = match busarb_obs::open_trace(path) {
        Ok(reader) => reader,
        Err(e) => return fail(0, None, e),
    };
    let mut pipeline = match Pipeline::new(reader.header()) {
        Ok(p) => p,
        Err(e) => return fail(0, None, e),
    };
    let format = reader.format();
    loop {
        match reader.next_event() {
            Ok(Some(event)) => {
                if let Err(e) = pipeline.push(&event) {
                    let events = pipeline.events();
                    let report = pipeline.report(name, format);
                    return fail(events, Some(report), e);
                }
                if pipeline.events() % PROGRESS_STRIDE == 0 {
                    state.publish(name, pipeline.events(), Some(pipeline.report(name, format)));
                }
            }
            Ok(None) => {
                let events = pipeline.events();
                let report = pipeline.report(name, format);
                return state.finish(name, events, Some(report), None);
            }
            Err(e) => {
                let events = pipeline.events();
                let report = pipeline.report(name, format);
                return fail(events, Some(report), e.into());
            }
        }
    }
}

/// Runs the server against a line-oriented input/output pair (stdin
/// mode, and the unit tests' in-memory harness).
///
/// Ingest threads for every stream run inside the call; the function
/// returns when the input ends or a `quit`/`shutdown` line arrives,
/// after joining the ingest threads (stream files are finite).
///
/// # Errors
///
/// Propagates I/O errors from the query input/output.
pub fn serve_streams<I: BufRead, O: Write>(
    streams: &[(String, PathBuf)],
    input: I,
    mut output: O,
) -> std::io::Result<()> {
    let state = ServeState::new(streams);
    std::thread::scope(|scope| {
        for (name, path) in streams {
            let state = &state;
            scope.spawn(move || ingest(state, name, path));
        }
        for line in input.lines() {
            let line = line?;
            let query = line.trim();
            if query.is_empty() {
                continue;
            }
            let (reply, outcome) = handle(&state, query);
            writeln!(output, "{reply}")?;
            output.flush()?;
            if matches!(outcome, Outcome::Quit | Outcome::Shutdown) {
                break;
            }
        }
        Ok(())
    })
}

/// Runs the server on a Unix domain socket at `socket_path`.
///
/// Connections are served one at a time (queries are cheap reads over
/// shared state; ingest parallelism is what matters). `quit` closes the
/// current connection; `shutdown` stops the server.
///
/// # Errors
///
/// Propagates socket bind/accept/read/write errors.
pub fn serve_socket(streams: &[(String, PathBuf)], socket_path: &Path) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    let state = ServeState::new(streams);
    std::thread::scope(|scope| {
        for (name, path) in streams {
            let state = &state;
            scope.spawn(move || ingest(state, name, path));
        }
        'serve: loop {
            let (connection, _) = listener.accept()?;
            let reader = std::io::BufReader::new(connection.try_clone()?);
            let mut writer = connection;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                let query = line.trim();
                if query.is_empty() {
                    continue;
                }
                let (reply, outcome) = handle(&state, query);
                if writeln!(writer, "{reply}").is_err() {
                    break;
                }
                match outcome {
                    Outcome::Continue => {}
                    Outcome::Quit => break,
                    Outcome::Shutdown => break 'serve,
                }
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_obs::{BinarySink, JsonlSink, TraceHeader, TraceSink, TRACE_SCHEMA};
    use busarb_types::{AgentId, Time, TraceEvent, TraceKind};
    use std::io::Cursor;

    fn header(protocol: &str) -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: protocol.to_string(),
            agents: 2,
            seed: 1,
            warmup_samples: 0,
            batches: 2,
            samples_per_batch: 2,
            confidence: 0.9,
        }
    }

    fn transactions(n: usize) -> Vec<TraceEvent> {
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
                kind: TraceKind::TransferEnd { agent, wait: 0.5 },
            });
        }
        events
    }

    fn temp_trace(name: &str, protocol: &str, n: usize, binary: bool) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("busarb-serve-test-{name}-{}", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        if binary {
            let mut sink = BinarySink::new(file, &header(protocol)).unwrap();
            for e in transactions(n) {
                sink.record(&e).unwrap();
            }
            sink.finish().unwrap();
        } else {
            let mut sink = JsonlSink::new(file, &header(protocol)).unwrap();
            for e in transactions(n) {
                sink.record(&e).unwrap();
            }
            sink.finish().unwrap();
        }
        path
    }

    #[test]
    fn serves_streams_reports_and_aggregate() {
        let a = temp_trace("a", "rr", 8, false);
        let b = temp_trace("b", "fcfs-1", 8, true);
        let streams = vec![
            ("alpha".to_string(), a.clone()),
            ("beta".to_string(), b.clone()),
        ];
        let input = Cursor::new("drain\nstreams\nreport alpha\nreport missing\naggregate\nquit\n");
        let mut output = Vec::new();
        serve_streams(&streams, input, &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        // drain + streams: both done, tag-sorted (alpha before beta).
        let statuses = serde_json::from_str(lines[1]).unwrap();
        let arr = statuses.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("stream").and_then(serde::Value::as_str),
            Some("alpha")
        );
        assert_eq!(
            arr[0].get("done").and_then(serde::Value::as_bool),
            Some(true)
        );
        assert_eq!(
            arr[1].get("stream").and_then(serde::Value::as_str),
            Some("beta")
        );
        // report alpha is a full analysis report.
        let report = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(
            report.get("protocol").and_then(serde::Value::as_str),
            Some("rr")
        );
        assert_eq!(
            report.get("events").and_then(serde::Value::as_u64),
            Some(32)
        );
        // unknown stream is a structured error.
        assert!(lines[3].contains("unknown stream"));
        // aggregate sums both streams, protocols sorted.
        let agg = serde_json::from_str(lines[4]).unwrap();
        assert_eq!(agg.get("events").and_then(serde::Value::as_u64), Some(64));
        assert_eq!(agg.get("done").and_then(serde::Value::as_u64), Some(2));
        assert_eq!(agg.get("grants").and_then(serde::Value::as_u64), Some(16));
        let protocols = agg.get("protocols").unwrap().as_array().unwrap();
        assert_eq!(protocols.len(), 2);
        assert_eq!(protocols[0].as_str(), Some("fcfs-1"));
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn ingest_failure_is_reported_not_fatal() {
        let missing = (
            "ghost".to_string(),
            PathBuf::from("/nonexistent/trace.btrc"),
        );
        let input = Cursor::new("drain\nquit\n");
        let mut output = Vec::new();
        serve_streams(&[missing], input, &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let statuses = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        let arr = statuses.as_array().unwrap();
        assert_eq!(
            arr[0].get("done").and_then(serde::Value::as_bool),
            Some(true)
        );
        assert!(arr[0].get("error").and_then(serde::Value::as_str).is_some());
    }

    #[test]
    fn socket_mode_answers_queries() {
        use std::os::unix::net::UnixStream;
        let trace = temp_trace("sock", "aap-2", 4, true);
        let socket = std::env::temp_dir().join(format!("busarb-serve-sock-{}", std::process::id()));
        let streams = vec![("only".to_string(), trace.clone())];
        let socket_path = socket.clone();
        let server = std::thread::spawn(move || serve_socket(&streams, &socket_path));
        // The listener may not be bound yet; retry briefly.
        let mut connection = None;
        for _ in 0..200 {
            match UnixStream::connect(&socket) {
                Ok(c) => {
                    connection = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        let conn = connection.expect("server socket came up");
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        writeln!(writer, "drain").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"done\":true"));
        writeln!(writer, "report only").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("assured-bypass"));
        writeln!(writer, "shutdown").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(socket);
    }
}
