//! JSONL event-line decoding: a schema-directed fast path for the exact
//! lines [`JsonlSink`](crate::JsonlSink) writes, backed by the general
//! JSON parser for everything else.
//!
//! The sink writes each event as one of five canonical line shapes —
//! fixed key order, no whitespace, floats in `f64` `Display` form:
//!
//! ```text
//! {"at":F,"ev":"req","agent":N}
//! {"at":F,"ev":"arb","winner":N,"completes":F}
//! {"at":F,"ev":"xfer","agent":N}
//! {"at":F,"ev":"end","agent":N,"wait":F}
//! {"at":F,"ev":"coh","agent":N,"op":"SLUG","invalidated":N}
//! ```
//!
//! [`decode_canonical`] matches those literal key/tag prefixes on the
//! borrowed line and parses numbers straight from slices, building no
//! JSON tree and allocating nothing. It accepts a float only when it is
//! exactly `[0-9]+\.[0-9]+` (the text the general parser also hands to
//! `str::parse::<f64>`, so the two agree bit for bit) and an integer
//! only when it is `0` or `[1-9][0-9]*` within `u32`; it runs the same
//! timestamp, duration and roster checks as the general path. Anything
//! else — `-0`, integer-valued floats written as `3`, reordered or extra
//! keys, whitespace, a value that fails a check — makes it decline, and
//! the line goes to [`decode_general`] unchanged. That path is the only
//! source of events from non-canonical lines and of every error
//! message, so the accepted language and the errors are exactly those
//! of the general parser.

use busarb_types::{AgentId, Time, TraceEvent, TraceKind};

use crate::export::coherence_op_from_slug;
use crate::stream::{finite_duration, finite_time, is_valid_duration};

/// Decodes one event line (without its newline): `Ok(None)` for a blank
/// line, otherwise the event or the complaint (without position
/// information — the caller owns that).
pub(crate) fn decode_event_line(line: &[u8], agents: u32) -> Result<Option<TraceEvent>, String> {
    match decode_canonical(line, agents) {
        Some((event, [])) => Ok(Some(event)),
        _ => decode_general(line, agents),
    }
}

/// The fast path: if `bytes` starts with one of the five canonical
/// shapes, passing every check, returns its event and the bytes after
/// its closing brace; declines (`None`) otherwise. The line is
/// canonical only if those bytes are empty or start with its newline.
/// Allocation- and panic-free.
pub(crate) fn decode_canonical(bytes: &[u8], agents: u32) -> Option<(TraceEvent, &[u8])> {
    let rest = bytes.strip_prefix(b"{\"at\":")?;
    let (at, rest) = time(rest)?;
    let rest = rest.strip_prefix(b",\"ev\":\"")?;
    let (kind, rest) = if let Some(rest) = rest.strip_prefix(b"req\",\"agent\":") {
        let (agent, rest) = agent(rest, agents)?;
        (TraceKind::Request { agent }, rest)
    } else if let Some(rest) = rest.strip_prefix(b"arb\",\"winner\":") {
        let (winner, rest) = agent(rest, agents)?;
        let rest = rest.strip_prefix(b",\"completes\":")?;
        let (completes, rest) = time(rest)?;
        (TraceKind::ArbitrationStart { winner, completes }, rest)
    } else if let Some(rest) = rest.strip_prefix(b"xfer\",\"agent\":") {
        let (agent, rest) = agent(rest, agents)?;
        (TraceKind::TransferStart { agent }, rest)
    } else if let Some(rest) = rest.strip_prefix(b"end\",\"agent\":") {
        let (agent, rest) = agent(rest, agents)?;
        let rest = rest.strip_prefix(b",\"wait\":")?;
        let (wait, rest) = float(rest)?;
        if !is_valid_duration(wait) {
            return None;
        }
        (TraceKind::TransferEnd { agent, wait }, rest)
    } else {
        let rest = rest.strip_prefix(b"coh\",\"agent\":")?;
        let (agent, rest) = agent(rest, agents)?;
        let rest = rest.strip_prefix(b",\"op\":\"")?;
        let quote = rest.iter().position(|&b| b == b'"')?;
        let (slug, rest) = rest.split_at_checked(quote)?;
        let op = coherence_op_from_slug(core::str::from_utf8(slug).ok()?)?;
        let rest = rest.strip_prefix(b"\",\"invalidated\":")?;
        let (invalidated, rest) = uint(rest)?;
        let kind = TraceKind::Coherence {
            agent,
            op,
            invalidated,
        };
        (kind, rest)
    };
    let rest = rest.strip_prefix(b"}")?;
    Some((TraceEvent { at, kind }, rest))
}

/// Number of leading ASCII digits.
fn digits(s: &[u8]) -> usize {
    s.iter().take_while(|b| b.is_ascii_digit()).count()
}

/// A float spelled exactly `[0-9]+\.[0-9]+`, and the bytes after it.
fn float(s: &[u8]) -> Option<(f64, &[u8])> {
    let whole = digits(s);
    if whole == 0 || s.get(whole) != Some(&b'.') {
        return None;
    }
    let fraction = digits(s.get(whole + 1..)?);
    if fraction == 0 {
        return None;
    }
    let (number, rest) = s.split_at_checked(whole + 1 + fraction)?;
    let value = core::str::from_utf8(number).ok()?.parse::<f64>().ok()?;
    Some((value, rest))
}

/// A timestamp: a canonical float that passes the duration check.
fn time(s: &[u8]) -> Option<(Time, &[u8])> {
    let (value, rest) = float(s)?;
    is_valid_duration(value).then(|| (Time::saturating(value), rest))
}

/// A `u32` spelled `0` or `[1-9][0-9]*` (no sign, no leading zero).
fn uint(s: &[u8]) -> Option<(u32, &[u8])> {
    let (number, rest) = s.split_at_checked(digits(s))?;
    if number.is_empty() || (number.len() > 1 && number.first() == Some(&b'0')) {
        return None;
    }
    let mut value = 0u32;
    for &d in number {
        value = value.checked_mul(10)?.checked_add(u32::from(d - b'0'))?;
    }
    Some((value, rest))
}

/// An agent identity inside the header's roster.
fn agent(s: &[u8], agents: u32) -> Option<(AgentId, &[u8])> {
    let (raw, rest) = uint(s)?;
    Some((AgentId::try_from_raw(raw, agents).ok()?, rest))
}

/// The general path: any JSON object with the event's fields, through
/// the `serde_json` tree. `Ok(None)` for a blank line.
pub(crate) fn decode_general(line: &[u8], agents: u32) -> Result<Option<TraceEvent>, String> {
    if line.iter().all(u8::is_ascii_whitespace) {
        return Ok(None);
    }
    let text = core::str::from_utf8(line).map_err(|_| "event line is not UTF-8".to_string())?;
    let value = serde_json::from_str(text).map_err(|e| format!("bad event: {e}"))?;
    event_from_value(&value, agents).map(Some)
}

/// Parses one JSONL event object, validating agent identities against
/// the `agents` roster declared by the trace header. Returns the
/// complaint (without position information — the caller owns that) on
/// malformed input.
fn event_from_value(v: &serde::Value, agents: u32) -> Result<TraceEvent, String> {
    fn f64_field(v: &serde::Value, key: &str) -> Result<f64, String> {
        v.get(key)
            .and_then(serde::Value::as_f64)
            .ok_or_else(|| format!("missing or mistyped `{key}`"))
    }
    fn u32_field(v: &serde::Value, key: &str) -> Result<u32, String> {
        let raw = v
            .get(key)
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| format!("missing or mistyped `{key}`"))?;
        u32::try_from(raw).map_err(|_| format!("`{key}` exceeds u32"))
    }
    let agent_field = |key: &str| -> Result<AgentId, String> {
        AgentId::try_from_raw(u32_field(v, key)?, agents)
            .map_err(|e| format!("bad agent identity: {e}"))
    };
    let at = finite_time(f64_field(v, "at")?, "timestamp")?;
    let kind = match v.get("ev").and_then(serde::Value::as_str) {
        Some("req") => TraceKind::Request {
            agent: agent_field("agent")?,
        },
        Some("arb") => TraceKind::ArbitrationStart {
            winner: agent_field("winner")?,
            completes: finite_time(f64_field(v, "completes")?, "completion time")?,
        },
        Some("xfer") => TraceKind::TransferStart {
            agent: agent_field("agent")?,
        },
        Some("end") => TraceKind::TransferEnd {
            agent: agent_field("agent")?,
            wait: finite_duration(f64_field(v, "wait")?, "wait")?,
        },
        Some("coh") => {
            let slug = v
                .get("op")
                .and_then(serde::Value::as_str)
                .ok_or_else(|| "missing or mistyped `op`".to_string())?;
            let op = coherence_op_from_slug(slug)
                .ok_or_else(|| format!("unknown coherence op {slug:?}"))?;
            TraceKind::Coherence {
                agent: agent_field("agent")?,
                op,
                invalidated: u32_field(v, "invalidated")?,
            }
        }
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(TraceEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::coherence_op_code;
    use crate::{JsonlSink, TraceHeader, TraceSink, TRACE_SCHEMA};
    use busarb_types::CoherenceOp;
    use proptest::prelude::*;

    /// The roster the test header declares; agent ids up to
    /// `AGENTS + 3` are generated so out-of-roster ids occur too.
    const AGENTS: u32 = 12;

    fn header() -> TraceHeader {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            protocol: "rr".to_string(),
            agents: AGENTS,
            seed: 1,
            warmup_samples: 0,
            batches: 2,
            samples_per_batch: 2,
            confidence: 0.9,
        }
    }

    /// The event lines `JsonlSink` writes for `events` (header dropped).
    fn sink_lines(events: &[TraceEvent]) -> Vec<Vec<u8>> {
        let mut bytes = Vec::new();
        let mut sink = JsonlSink::new(&mut bytes, &header()).unwrap();
        for event in events {
            sink.record(event).unwrap();
        }
        drop(sink);
        bytes
            .split(|&b| b == b'\n')
            .skip(1)
            .filter(|line| !line.is_empty())
            .map(<[u8]>::to_vec)
            .collect()
    }

    /// Every field of an event as raw bits, so `-0.0` differs from `0.0`.
    fn bits(e: &TraceEvent) -> (u64, u8, u32, u64) {
        let at = e.at.as_f64().to_bits();
        match e.kind {
            TraceKind::Request { agent } => (at, 10, agent.get(), 0),
            TraceKind::ArbitrationStart { winner, completes } => {
                (at, 11, winner.get(), completes.as_f64().to_bits())
            }
            TraceKind::TransferStart { agent } => (at, 12, agent.get(), 0),
            TraceKind::TransferEnd { agent, wait } => (at, 13, agent.get(), wait.to_bits()),
            TraceKind::Coherence {
                agent,
                op,
                invalidated,
            } => (
                at,
                coherence_op_code(op),
                agent.get(),
                u64::from(invalidated),
            ),
        }
    }

    /// The fast path on a whole line: the event if the line is canonical.
    fn fast(line: &[u8]) -> Option<TraceEvent> {
        match decode_canonical(line, AGENTS) {
            Some((event, [])) => Some(event),
            _ => None,
        }
    }

    /// The differential property: the fast path either declines or
    /// yields, bit for bit, the event the general path yields; and the
    /// reader's entry point returns exactly the general path's outcome
    /// (event, blank, or error message).
    fn assert_agrees(line: &[u8]) {
        let shown = String::from_utf8_lossy(line);
        let general = decode_general(line, AGENTS);
        if let Some(fast) = fast(line) {
            match &general {
                Ok(Some(event)) => assert_eq!(bits(&fast), bits(event), "{shown}"),
                other => panic!("fast path accepted {shown:?}; general path gives {other:?}"),
            }
        }
        // Decoding in place, with the newline and more input after the
        // line, takes exactly the same lines.
        let mut followed = line.to_vec();
        followed.extend_from_slice(b"\n{\"at\":1.5");
        let in_place = match decode_canonical(&followed, AGENTS) {
            Some((event, [b'\n', ..])) => Some(bits(&event)),
            _ => None,
        };
        assert_eq!(in_place, fast(line).as_ref().map(bits), "{shown}");
        let combined = decode_event_line(line, AGENTS);
        assert_eq!(
            combined.as_ref().map(|e| e.as_ref().map(bits)),
            general.as_ref().map(|e| e.as_ref().map(bits)),
            "{shown}"
        );
    }

    /// Whether the sink's `Display` spelling of `x` is a canonical
    /// `[0-9]+\.[0-9]+` float.
    fn canonical_spelling(x: f64) -> bool {
        let s = x.to_string();
        !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || b == b'.') && s.contains('.')
    }

    /// Bytes a single-byte substitution tries at every position.
    const SUBSTITUTES: &[u8] = b"09.-+e\" ,}{x\\\n\xff";

    fn float_strategy() -> impl Strategy<Value = f64> {
        prop_oneof![
            proptest::sample::select(vec![
                0.0,
                -0.0,
                5e-324,
                f64::MIN_POSITIVE / 2.0,
                f64::MIN_POSITIVE,
                1.0 / 3.0,
                0.1,
                3.0,
                1e21,
                1e300,
                f64::MAX,
                -2.5,
                f64::INFINITY,
                f64::NAN,
            ]),
            0.0f64..1e4,
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    fn event(kind: u8, x: f64, y: f64, raw_agent: u32, count: u32) -> TraceEvent {
        let time = |v: f64| Time::from(if v.is_finite() { v } else { 0.0 });
        let agent = AgentId::new(raw_agent).unwrap();
        let kind = match kind {
            0 => TraceKind::Request { agent },
            1 => TraceKind::ArbitrationStart {
                winner: agent,
                completes: time(y),
            },
            2 => TraceKind::TransferStart { agent },
            3 => TraceKind::TransferEnd { agent, wait: y },
            _ => TraceKind::Coherence {
                agent,
                op: match count % 3 {
                    0 => CoherenceOp::ReadMiss,
                    1 => CoherenceOp::WriteMiss,
                    _ => CoherenceOp::Upgrade,
                },
                invalidated: if count.is_multiple_of(2) {
                    count % 7
                } else {
                    count
                },
            },
        };
        TraceEvent { at: time(x), kind }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every line the sink writes for random events of all five
        /// kinds — and each of its truncations and single-byte
        /// substitutions — is decoded identically by both paths, and
        /// the fast path takes exactly the lines whose numbers are all
        /// canonically spelled and in range.
        #[test]
        fn fast_path_agrees_with_the_general_path_on_sink_lines(
            choices in proptest::collection::vec(
                ((0u8..5, any::<u32>()), float_strategy(), float_strategy(), 1u32..AGENTS + 4),
                1..6,
            ),
        ) {
            let events: Vec<TraceEvent> = choices
                .iter()
                .map(|&((kind, count), x, y, agent)| event(kind, x, y, agent, count))
                .collect();
            for (event, line) in events.iter().zip(sink_lines(&events)) {
                assert_agrees(&line);
                let (at, tag, agent, extra) = bits(event);
                let floats_canonical = canonical_spelling(f64::from_bits(at))
                    && (!matches!(tag, 11 | 13) || canonical_spelling(f64::from_bits(extra)));
                prop_assert_eq!(
                    fast(&line).is_some(),
                    floats_canonical && agent <= AGENTS,
                    "{}",
                    String::from_utf8_lossy(&line)
                );
                for cut in 0..line.len() {
                    assert_agrees(&line[..cut]);
                }
                let mut mutated = line.clone();
                for at in 0..line.len() {
                    for &b in SUBSTITUTES {
                        mutated[at] = b;
                        assert_agrees(&mutated);
                    }
                    mutated[at] = line[at];
                }
            }
        }
    }

    /// One slot of a line template.
    #[derive(Clone, Copy)]
    enum Piece {
        Lit(&'static str),
        Float,
        Int,
    }

    /// The five canonical shapes, with their number slots open.
    fn shapes() -> Vec<Vec<Piece>> {
        use Piece::{Float, Int, Lit};
        vec![
            vec![
                Lit(r#"{"at":"#),
                Float,
                Lit(r#","ev":"req","agent":"#),
                Int,
                Lit("}"),
            ],
            vec![
                Lit(r#"{"at":"#),
                Float,
                Lit(r#","ev":"arb","winner":"#),
                Int,
                Lit(r#","completes":"#),
                Float,
                Lit("}"),
            ],
            vec![
                Lit(r#"{"at":"#),
                Float,
                Lit(r#","ev":"xfer","agent":"#),
                Int,
                Lit("}"),
            ],
            vec![
                Lit(r#"{"at":"#),
                Float,
                Lit(r#","ev":"end","agent":"#),
                Int,
                Lit(r#","wait":"#),
                Float,
                Lit("}"),
            ],
            vec![
                Lit(r#"{"at":"#),
                Float,
                Lit(r#","ev":"coh","agent":"#),
                Int,
                Lit(r#","op":"upgrade","invalidated":"#),
                Int,
                Lit("}"),
            ],
        ]
    }

    /// Renders `shape` with canonical numbers, except `odd` in slot `slot`.
    fn render(shape: &[Piece], slot: usize, odd: &str) -> String {
        let mut out = String::new();
        for (i, piece) in shape.iter().enumerate() {
            out.push_str(match *piece {
                _ if i == slot => odd,
                Piece::Lit(text) => text,
                Piece::Float => "1.5",
                Piece::Int => "2",
            });
        }
        out
    }

    /// Spellings where Rust's `f64` grammar, the JSON parser's and the
    /// canonical form part ways, tried in every number slot of every
    /// shape.
    #[test]
    fn odd_number_spellings_never_split_the_paths() {
        let huge = format!("{}.5", "9".repeat(400));
        let odd = [
            ".5",
            "-.5",
            "1.",
            "01.5",
            "00.5",
            "+1",
            "inf",
            "-inf",
            "NaN",
            "infinity",
            "1e5",
            "1E5",
            "1.5e0",
            "1.5.5",
            "-0",
            "-0.0",
            "0",
            "3",
            "0.0",
            "-1.5",
            "01",
            "00",
            "-1",
            "1.0",
            "1e0",
            "4294967295",
            "4294967296",
            "18446744073709551616",
            "12",
            "13",
            " 1.5",
            "1.5 ",
            "",
            &huge,
        ];
        for shape in shapes() {
            assert_agrees(render(&shape, usize::MAX, "").as_bytes());
            assert!(
                fast(render(&shape, usize::MAX, "").as_bytes()).is_some(),
                "the canonical rendering takes the fast path"
            );
            for slot in 0..shape.len() {
                if matches!(shape[slot], Piece::Lit(_)) {
                    continue;
                }
                for spelling in odd {
                    assert_agrees(render(&shape, slot, spelling).as_bytes());
                }
            }
        }
        // Both paths read a leading-zero float the same way.
        let line = br#"{"at":01.5,"ev":"req","agent":2}"#;
        assert_eq!(fast(line).map(|e| e.at.as_f64()), Some(1.5));
    }

    /// Valid JSON for an event that is not in canonical form: the fast
    /// path must decline every one, and the general path decides.
    #[test]
    fn non_canonical_objects_fall_through() {
        let lines = [
            r#"{"ev":"req","at":1.5,"agent":2}"#,
            r#"{"at":1.5,"agent":2,"ev":"req"}"#,
            r#"{"at":1.5,"ev":"arb","completes":2.5,"winner":2}"#,
            r#"{"at":1.5,"ev":"req","agent":2,"extra":1}"#,
            r#"{"extra":null,"at":1.5,"ev":"req","agent":2}"#,
            r#"{"at":1.5,"ev":"req","agent":2,"agent":3}"#,
            r#"{"at":1.5,"at":2.5,"ev":"req","agent":2}"#,
            r#"{"at":1.5,"ev":"xfer","ev":"req","agent":2}"#,
            r#"{"a\u0074":1.5,"ev":"req","agent":2}"#,
            r#"{"at":1.5,"ev":"r\u0065q","agent":2}"#,
            r#"{"at":1.5,"ev":"coh","agent":2,"op":"upgr\u0061de","invalidated":0}"#,
            r#"{"at":1.5,"ev":"coh","agent":2,"op":"upgrade\"","invalidated":0}"#,
            r#"{"at":1.5,"ev":"coh","agent":2,"op":"mystery","invalidated":0}"#,
            r#"{ "at":1.5,"ev":"req","agent":2}"#,
            r#"{"at": 1.5,"ev":"req","agent":2}"#,
            r#"{"at":1.5 ,"ev":"req","agent":2}"#,
            r#"{"at":1.5,"ev":"req","agent":2 }"#,
            " {\"at\":1.5,\"ev\":\"req\",\"agent\":2}",
            "{\"at\":1.5,\"ev\":\"req\",\"agent\":2} ",
            "{\"at\":1.5,\"ev\":\"req\",\"agent\":2}\r",
            "{\"at\":1.5,\"ev\":\"req\",\"agent\":2}\t",
            r#"{"at":1.5,"ev":"req","agent":2}}"#,
            r#"{"at":1.5,"ev":"req","agent":2},"#,
            r#"[{"at":1.5,"ev":"req","agent":2}]"#,
            "   ",
            "",
        ];
        for line in lines {
            assert!(fast(line.as_bytes()).is_none(), "{line:?} is not canonical");
            assert_agrees(line.as_bytes());
        }
        // The general path still accepts the reordered, escaped and
        // spaced forms, so the reader's language is unchanged.
        let canonical = decode_event_line(br#"{"at":1.5,"ev":"req","agent":2}"#, AGENTS)
            .unwrap()
            .unwrap();
        for same in [lines[0], lines[8], lines[9], lines[13], lines[17]] {
            let event = decode_event_line(same.as_bytes(), AGENTS).unwrap().unwrap();
            assert_eq!(bits(&event), bits(&canonical), "{same}");
        }
    }
}
