//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`] and [`to_string_pretty`] over the shim `serde`'s value
//! tree, with the real crate's formatting conventions — compact output
//! has no whitespace, pretty output indents with two spaces, floats that
//! happen to be integral keep a trailing `.0`, and non-finite floats
//! serialize as `null` — plus [`from_str`], a small recursive-descent
//! parser back into the [`Value`] tree (used to read exported metrics
//! and trace files back in).

#![forbid(unsafe_code)]

use std::fmt;

use serde::{Serialize, Value};

/// Serialization error (the shim serializer is total, so this is only
/// here to keep call sites' `Result` handling compiling unchanged).
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as compact JSON (`{"k":1,"v":[2,3]}`).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as pretty JSON with two-space indentation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Parses a JSON document into a [`Value`] tree.
///
/// Numbers parse as [`Value::UInt`] / [`Value::Int`] when they are
/// integral and in range, and as [`Value::Float`] otherwise — matching
/// what [`to_string`] emits for each variant, so a serialize/parse
/// round-trip preserves the numeric variant for integers and floats
/// written with a `.0`/fractional part.
///
/// # Errors
///
/// Returns [`Error`] on malformed input or trailing non-whitespace.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.at)));
    }
    Ok(value)
}

struct Parser<'i> {
    bytes: &'i [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.at))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.bytes.get(self.at) {
            Some(b'n') => self.expect_literal("null").map(|()| Value::Null),
            Some(b't') => self.expect_literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect_literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.at += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.at += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.at) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.at += 1; // opening '"'
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err(self.err("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.at) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.at += 4;
                            // Surrogate pairs are not emitted by the shim
                            // serializer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate in \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.at - 1;
                    let mut end = self.at;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.at = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.at;
        self.eat(b'-');
        while matches!(self.bytes.get(self.at), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        let mut fractional = false;
        if self.eat(b'.') {
            fractional = true;
            while matches!(self.bytes.get(self.at), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.bytes.get(self.at), Some(b'e' | b'E')) {
            fractional = true;
            self.at += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.bytes.get(self.at), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .expect("number spans are ASCII digits and punctuation");
        if !fractional {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            // `-0` is the one integer-looking literal i64 cannot hold
            // faithfully: upstream serde_json yields the float -0.0 so
            // the sign bit survives the round trip, and so do we.
            if text.starts_with('-') && text.bytes().skip(1).all(|b| b == b'0') {
                return Ok(Value::Float(-0.0));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number '{text}'")))
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (k, (key, item)) in fields.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

/// JSON has no NaN/Infinity; like `serde_json`, emit `null`. Integral
/// finite values keep a `.0` suffix so they read back as floats.
///
/// Formats through `Debug`, not `Display`: both emit the shortest
/// round-tripping decimal, but `Debug` switches to scientific notation
/// for extreme exponents the way upstream `serde_json` (ryu) does —
/// `Display` would render 4e-14 as a 16-zero decimal expansion, which
/// breaks byte-identity with goldens recorded under real `serde_json`.
fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{x:?}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    struct Sample;

    impl Serialize for Sample {
        fn to_value(&self) -> Value {
            Value::Object(vec![
                ("agents".to_string(), Value::UInt(10)),
                ("load".to_string(), Value::Float(7.5)),
                ("whole".to_string(), Value::Float(2.0)),
                ("bad".to_string(), Value::Float(f64::NAN)),
                (
                    "rows".to_string(),
                    Value::Array(vec![Value::UInt(1), Value::UInt(2)]),
                ),
                ("empty".to_string(), Value::Array(vec![])),
            ])
        }
    }

    #[test]
    fn compact_matches_serde_json_conventions() {
        let json = to_string(&Sample).unwrap();
        assert_eq!(
            json,
            "{\"agents\":10,\"load\":7.5,\"whole\":2.0,\"bad\":null,\"rows\":[1,2],\"empty\":[]}"
        );
    }

    #[test]
    fn pretty_uses_two_space_indent() {
        let json = to_string_pretty(&Sample).unwrap();
        assert!(json.starts_with("{\n  \"agents\": 10,\n  \"load\": 7.5"));
        assert!(json.contains("\"rows\": [\n    1,\n    2\n  ]"));
        assert!(json.ends_with("\"empty\": []\n}"));
    }

    #[test]
    fn strings_are_escaped() {
        let v = "a\"b\\c\nd".to_string();
        assert_eq!(to_string(&v).unwrap(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn parse_round_trips_the_serializer_output() {
        let compact = to_string(&Sample).unwrap();
        let parsed = from_str(&compact).unwrap();
        // NaN serialized as null, so the round-trip swaps that one field.
        assert_eq!(parsed.get("agents"), Some(&Value::UInt(10)));
        assert_eq!(parsed.get("load"), Some(&Value::Float(7.5)));
        assert_eq!(parsed.get("whole"), Some(&Value::Float(2.0)));
        assert_eq!(parsed.get("bad"), Some(&Value::Null));
        assert_eq!(
            parsed.get("rows"),
            Some(&Value::Array(vec![Value::UInt(1), Value::UInt(2)]))
        );
        assert_eq!(parsed.get("empty"), Some(&Value::Array(vec![])));
        // The pretty form parses to the identical tree.
        assert_eq!(
            from_str(&to_string_pretty(&Sample).unwrap()).unwrap(),
            parsed
        );
    }

    #[test]
    fn parse_handles_escapes_numbers_and_nesting() {
        let v = from_str(
            "  {\"s\":\"a\\\"b\\\\\\n\\u0041\",\"neg\":-3,\"big\":18446744073709551615,\
             \"f\":-2.5e-1,\"t\":true,\"f2\":false,\"n\":null,\"nest\":[{\"x\":[]}]} ",
        )
        .unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\\nA"));
        assert_eq!(v.get("neg"), Some(&Value::Int(-3)));
        assert_eq!(v.get("big"), Some(&Value::UInt(u64::MAX)));
        assert_eq!(v.get("f"), Some(&Value::Float(-0.25)));
        assert_eq!(v.get("t"), Some(&Value::Bool(true)));
        assert_eq!(v.get("f2"), Some(&Value::Bool(false)));
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(
            v.get("nest").and_then(Value::as_array).map(<[Value]>::len),
            Some(1)
        );
        // f64 values round-trip bit-exactly through the shortest-repr
        // formatting, and extreme exponents stay in scientific notation
        // exactly as upstream serde_json renders them.
        let x = 1.234_567_890_123_456_7e-3;
        let json = to_string(&x).unwrap();
        assert_eq!(from_str(&json).unwrap().as_f64(), Some(x));
        assert_eq!(
            to_string(&3.977_439_750_067_086e-14).unwrap(),
            "3.977439750067086e-14"
        );
        assert_eq!(
            from_str("3.977439750067086e-14").unwrap().as_f64(),
            Some(3.977_439_750_067_086e-14)
        );
    }

    /// Boundary floats must survive serialize → parse **bit-exactly**
    /// (`to_bits`, not `==`, which cannot see the sign of zero): the
    /// negative-zero integer form, subnormals down to the smallest
    /// positive double, and values whose ryu-style shortest form needs
    /// all 17 significant digits or scientific notation.
    #[test]
    fn boundary_floats_round_trip_bit_exactly() {
        for x in [
            -0.0,
            0.0,
            f64::MIN_POSITIVE,       // smallest normal
            f64::MIN_POSITIVE / 2.0, // subnormal
            5e-324,                  // smallest subnormal
            -5e-324,
            f64::MAX,
            f64::MIN,
            0.1,                       // classic shortest-form case
            1.0 / 3.0,                 // needs 17 digits
            3.977_439_750_067_086e-14, // scientific shortest form
            f64::EPSILON,
        ] {
            let json = to_string(&x).expect("floats serialize");
            let back = from_str(&json)
                .expect("serialized floats parse")
                .as_f64()
                .expect("parses as a number");
            assert_eq!(
                back.to_bits(),
                x.to_bits(),
                "{x:?} -> {json} -> {back:?} is not bit-identical"
            );
        }
        // The integer spelling `-0` (what `Display` emits for -0.0, and
        // what upstream serde_json yields -0.0 for) keeps its sign bit.
        let v = from_str("{\"w\":-0}").expect("parses");
        let w = v.get("w").and_then(Value::as_f64).expect("a number");
        assert_eq!(w.to_bits(), (-0.0f64).to_bits(), "-0 lost its sign");
        // Plain zero stays an integer.
        assert_eq!(from_str("0").expect("parses"), Value::UInt(0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "nul",
            "\"\\q\"",
            "\"\\u12\"",
            "--1",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail");
        }
    }
}
