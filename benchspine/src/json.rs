//! A small JSON reader for the suite's own result files and
//! `BENCHMARK.json` (`benchcmp`, the smoke test). The workspace has no
//! serialization dependency, and `co_obs::json::parse` only validates.

use std::fmt;

/// A parsed JSON value. Objects keep their key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object.
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(members) => members,
            _ => &[],
        }
    }

    /// The elements of an array.
    pub fn elements(&self) -> &[Value] {
        match self {
            Value::Arr(elements) => elements,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What was expected there.
    pub expected: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: src.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.src.len() {
        return Err(p.err("end of input"));
    }
    Ok(v)
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'s> {
    src: &'s [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> ParseError {
        ParseError {
            at: self.at,
            expected,
        }
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8, expected: &'static str) -> Result<(), ParseError> {
        if self.src.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.src[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err("a JSON value"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.src.get(self.at) {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.at += 1;
                let mut elements = Vec::new();
                self.skip_ws();
                if self.src.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Value::Arr(elements));
                }
                loop {
                    elements.push(self.value()?);
                    self.skip_ws();
                    match self.src.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Value::Arr(elements));
                        }
                        _ => return Err(self.err("',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.src.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "':'")?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.src.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(self.err("',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.at;
                while self
                    .src
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.src[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or(ParseError {
                        at: start,
                        expected: "a number",
                    })
            }
            _ => Err(self.err("a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "'\"'")?;
        let mut out = Vec::new();
        loop {
            match self.src.get(self.at) {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.err("UTF-8 text"));
                }
                Some(b'\\') => {
                    self.at += 1;
                    let c = match self.src.get(self.at) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(self.err("four hex digits"))?;
                            self.at += 4;
                            hex
                        }
                        _ => return Err(self.err("an escape character")),
                    };
                    self.at += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_suite_writes() {
        let v = parse(
            r#"{"correct": true, "attempted": 10, "metrics": {"a.b": {"value": 1.5e2, "unit": "us"}},
                "co_env": [], "s": "x\"y\\zA", "n": null}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        let m = v.get("metrics").unwrap().get("a.b").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(150.0));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("us"));
        assert!(v.get("co_env").unwrap().elements().is_empty());
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x\"y\\zA"));
        assert_eq!(v.get("n"), Some(&Value::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert_eq!(
            parse(&quote("a\"b\n")).unwrap(),
            Value::Str("a\"b\n".into())
        );
    }
}
