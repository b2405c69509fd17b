//! The JSON value model, parser and writers backing the serde shim.
//!
//! Objects are ordered `Vec<(String, Value)>` pairs: serialized output is
//! deterministic and follows struct declaration order, and lookup sets
//! are small enough that linear scans beat hashing anyway.

use std::fmt;

/// A JSON number, kept in its narrowest faithful representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Anything with a fraction or exponent.
    F(f64),
}

impl Number {
    /// The value as `u64`, if faithfully representable.
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U(n) => Some(n),
            Number::I(n) => u64::try_from(n).ok(),
            Number::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= 2f64.powi(53) => Some(f as u64),
            Number::F(_) => None,
        }
    }

    /// The value as `i64`, if faithfully representable.
    #[must_use]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U(n) => i64::try_from(n).ok(),
            Number::I(n) => Some(n),
            Number::F(f) if f.fract() == 0.0 && f.abs() <= 2f64.powi(53) => Some(f as i64),
            Number::F(_) => None,
        }
    }

    /// The value as `f64` (integers convert lossily past 2^53).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U(n) => n as f64,
            Number::I(n) => n as f64,
            Number::F(f) => f,
        }
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Human name of the value's kind, for error messages.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// `Some(b)` for booleans.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `Some(&str)` for strings.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// `Some(u64)` for faithfully unsigned numbers.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// `Some(i64)` for faithfully integral numbers.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// `Some(f64)` for any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The elements, for arrays.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// The entries, for objects.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks up an object field by name.
    #[must_use]
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v))
    }

    /// The single `(tag, value)` entry of a one-entry object — the shape
    /// of an externally tagged enum variant with data.
    #[must_use]
    pub fn single_entry(&self) -> Option<(&str, &Value)> {
        match self.as_object()? {
            [(k, v)] => Some((k.as_str(), v)),
            _ => None,
        }
    }

    /// Compact JSON text.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Pretty-printed JSON text (two-space indent).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::U(n)) => out.push_str(&n.to_string()),
        Value::Number(Number::I(n)) => out.push_str(&n.to_string()),
        Value::Number(Number::F(f)) => {
            if f.is_finite() {
                // `{:?}` is the shortest representation that round-trips.
                out.push_str(&format!("{f:?}"));
            } else {
                // JSON has no NaN/Infinity; match serde_json and emit null.
                out.push_str("null");
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(xs) => {
            if xs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, x, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, x)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, x, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth lets a hostile document
/// overflow the stack; the committed results nest at most six levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with byte offset on malformed input, including
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, crate::Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(crate::Error::msg(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> crate::Error {
        crate::Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), crate::Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, crate::Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, crate::Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, crate::Error>,
    ) -> Result<Value, crate::Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, crate::Error> {
        self.eat(b'[', "expected `[`")?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(xs));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, crate::Error> {
        self.eat(b'{', "expected `{`")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:`")?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, crate::Error> {
        self.eat(b'"', "expected `\"`")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: peek a following \uXXXX.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| self.err("truncated surrogate"))?;
                                    let lo_hex = std::str::from_utf8(lo_hex)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| self.err("bad surrogate"))?;
                                    self.pos += 6;
                                    let combined =
                                        0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u code point"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, crate::Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(n)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F(f)))
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_document() {
        let text = r#"{"a":1,"b":[-2,3.5,null,true],"c":{"d":"x\ny"}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_json(), text);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_json(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn numbers_keep_integrality() {
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Value::Number(Number::U(u64::MAX))
        );
        assert_eq!(
            parse("-9007199254740993").unwrap(),
            Value::Number(Number::I(-9_007_199_254_740_993))
        );
        assert_eq!(parse("1e3").unwrap(), Value::Number(Number::F(1000.0)));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        let pretty = v.to_json_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).expect_err("200k open brackets must be refused");
        assert!(err.to_string().contains("nesting"), "{err}");
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past).is_err());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        assert!(parse(&format!("[{objects}]")).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }
}
