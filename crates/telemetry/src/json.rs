//! Minimal deterministic JSON model, serializer, and parser.
//!
//! Object keys live in a `BTreeMap` and are always emitted in sorted
//! order; numbers use Rust's shortest-roundtrip `Display`; strings are
//! escaped per RFC 8259. There are no serializer options, so the byte
//! output of [`Value::to_json`] is a pure function of the value — the
//! property the CI regression gate depends on.
//!
//! [`parse_value`] is the inverse: the one hand-rolled JSON reader in
//! the workspace (traces, bench reports, and metrics series all go
//! through it), lossless for 64-bit integers and shortest-roundtrip
//! floats so `parse(serialize(v)) == v` bit-for-bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (counters, micros, bucket counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Finite float; NaN and infinities serialize as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with sorted keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Value {
        Value::Object(BTreeMap::new())
    }

    /// Inserts `key` into an object value. Inserting into a non-object is
    /// a programming error in report assembly, not a data error: it fires
    /// a `debug_assert` under test profiles and is a no-op in release, so
    /// report emission never aborts a finished run.
    pub fn insert(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        if let Value::Object(map) = self {
            map.insert(key.to_string(), value.into());
        } else {
            debug_assert!(false, "Value::insert on non-object {self:?}");
        }
        self
    }

    /// Looks a key up in an object value.
    #[expect(clippy::wildcard_enum_match_arm, reason = "only objects have keys")]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace), deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (2-space indent), deterministic. Used for
    /// `--report-json` files so baseline diffs are line-oriented and
    /// human-readable.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}

// ---------------------------------------------------------------------
// JSON parsing (recursive descent over one document)
// ---------------------------------------------------------------------

/// The deepest array/object nesting [`parse_value`] accepts. Every
/// artifact the workspace writes nests a few levels; the parser recurses
/// once per level, so the bound keeps hostile input off the stack limit.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses a single JSON value. Integer tokens without `.`/`e` parse as
/// `U64`/`I64` so 64-bit seeds survive exactly (no `f64` round-trip).
///
/// # Errors
///
/// Returns a human-readable message on malformed input, trailing data,
/// or arrays and objects nested deeper than [`MAX_JSON_DEPTH`].
pub fn parse_value(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        chars: input.chars().collect(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing data at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, want: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected `{want}`, found `{c}`")),
            None => Err(format!("expected `{want}`, found end of input")),
        }
    }

    fn eat_keyword(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            match self.bump() {
                Some(c) if c == want => {}
                _ => return Err(format!("invalid literal (expected `{word}`)")),
            }
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ ('{' | '[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == '{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => {
                self.eat_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some('f') => {
                self.eat_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some('n') => {
                self.eat_keyword("null")?;
                Ok(Value::Null)
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected character `{c}`")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.consume('{')?;
        let mut v = Value::object();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(v);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(':')?;
            let val = self.value()?;
            v.insert(&key, val);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(v),
                Some(c) => return Err(format!("expected `,` or `}}` in object, found `{c}`")),
                None => return Err("unterminated object".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.consume('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Value::Array(items)),
                Some(c) => return Err(format!("expected `,` or `]` in array, found `{c}`")),
                None => return Err("unterminated array".into()),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("invalid \\u escape")?;
                            code = code * 16 + d;
                        }
                        // Workspace artifacts only ever contain ASCII
                        // strings; reject surrogate halves rather than
                        // pairing them.
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    _ => return Err("invalid escape".into()),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => self.pos += 1,
                '.' | 'e' | 'E' | '+' | '-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|e| format!("bad integer `{text}`: {e}"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|e| format!("bad integer `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_sorted() {
        let mut v = Value::object();
        v.insert("zeta", 1u64)
            .insert("alpha", 2u64)
            .insert("mid", 3u64);
        assert_eq!(v.to_json(), r#"{"alpha":2,"mid":3,"zeta":1}"#);
    }

    #[test]
    fn escapes_strings() {
        let v = Value::Str("a\"b\\c\n\u{1}".into());
        assert_eq!(v.to_json(), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::F64(f64::NAN).to_json(), "null");
        assert_eq!(Value::F64(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::F64(1.5).to_json(), "1.5");
    }

    #[test]
    fn parser_handles_nested_and_escaped_json() {
        let v = parse_value(r#"{"a":[1,-2,3.5,null,true],"b":"x\n\"yA"}"#).unwrap();
        assert_eq!(v.get("b"), Some(&Value::Str("x\n\"yA".into())));
        assert_eq!(
            v.get("a"),
            Some(&Value::Array(vec![
                Value::U64(1),
                Value::I64(-2),
                Value::F64(3.5),
                Value::Null,
                Value::Bool(true),
            ]))
        );
        assert!(parse_value("{\"a\":1} extra").is_err());
        assert!(parse_value("{\"a\"").is_err());
    }

    /// `depth` openers around a scalar, closed again.
    fn nested(open: &str, close: &str, depth: usize) -> String {
        format!("{}0{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_past_the_bound_is_a_typed_error() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(parse_value(&nested(open, close, MAX_JSON_DEPTH)).is_ok());
            let err = parse_value(&nested(open, close, MAX_JSON_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
            // Far past any stack: an error, not an overflow.
            let err = parse_value(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        let mut v = Value::object();
        v.insert("seed", u64::MAX - 3);
        v.insert("neg", -42i64);
        v.insert("t", 0.1f64 + 0.2f64); // famously not 0.3
        v.insert("s", "a\"b\\c\n");
        let back = parse_value(&v.to_json()).unwrap();
        assert_eq!(back, v);
        assert_eq!(parse_value(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_stable() {
        let mut v = Value::object();
        v.insert("b", Value::Array(vec![Value::U64(1), Value::Null]));
        v.insert("a", Value::object());
        assert_eq!(
            v.to_json_pretty(),
            "{\n  \"a\": {},\n  \"b\": [\n    1,\n    null\n  ]\n}\n"
        );
    }
}
