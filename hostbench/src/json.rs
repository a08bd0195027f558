//! The results record and the small JSON reader/writer behind it.
//!
//! The build is offline, so there is no serde: [`Value`] is a minimal JSON
//! document tree with a recursive-descent parser, and [`ResultRecord`] is
//! the typed form of the one line the benchmark prints last. Fields are read
//! by walking the parsed tree, never by substring matching.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has one numeric type).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key `{key}`")),
            _ => Err(format!("`{key}` looked up in a non-object")),
        }
    }

    /// The keys of an object, in order.
    pub fn keys(&self) -> Result<Vec<&str>, String> {
        match self {
            Value::Obj(members) => Ok(members.iter().map(|(k, _)| k.as_str()).collect()),
            _ => Err("expected an object".into()),
        }
    }

    /// The value as a number.
    pub fn num(&self) -> Result<f64, String> {
        match self {
            Value::Num(x) => Ok(*x),
            _ => Err("expected a number".into()),
        }
    }

    /// The value as a whole non-negative number.
    pub fn count(&self) -> Result<u64, String> {
        let x = self.num()?;
        if x >= 0.0 && x.fract() == 0.0 && x < 9.007_199_254_740_992e15 {
            Ok(x as u64)
        } else {
            Err(format!("expected a whole count, got {x}"))
        }
    }

    /// The value as a string.
    pub fn str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err("expected a string".into()),
        }
    }

    /// The value as a boolean.
    pub fn bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".into()),
        }
    }

    /// The value as an array.
    #[cfg(test)]
    pub fn arr(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(xs) => Ok(xs),
            _ => Err("expected an array".into()),
        }
    }
}

/// Cursor over the document; `i` is a byte offset on a char boundary.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .s
            .as_bytes()
            .get(self.i)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.as_bytes().get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.i += 1;
                let mut xs = Vec::new();
                self.ws();
                if self.s.as_bytes().get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(xs));
                }
                loop {
                    xs.push(self.value()?);
                    self.ws();
                    match self.s.as_bytes().get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(xs));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.as_bytes().get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.as_bytes().get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        let len = self.s[start..]
            .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
            .unwrap_or(self.s.len() - start);
        self.i += len;
        let text = &self.s[start..self.i];
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let c = self.s[self.i..]
                .chars()
                .next()
                .ok_or("unterminated string")?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = *self.s.as_bytes().get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(code).ok_or("\\u escape is not a scalar")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i - 1)),
                    }
                }
                c if (c as u32) < 0x20 => return Err("control character in string".into()),
                c => out.push(c),
            }
        }
    }
}

/// Appends `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
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

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, every digit kept.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
}

/// The benchmark's result: the last line of its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRecord {
    /// Whether every output check passed.
    pub correct: bool,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl ResultRecord {
    /// Renders the record as one line of JSON. Values print with Rust's
    /// shortest round-trip formatting, so parsing gives back the same bits.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value, which JSON cannot carry.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            if i > 0 {
                out.push_str(", ");
            }
            write_str(&mut out, &m.name);
            let _ = write!(out, ": {{\"value\": {}, \"unit\": ", m.value);
            write_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a record printed by [`ResultRecord::to_json`], requiring
    /// exactly its keys.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        if v.keys()? != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected top-level keys {:?}", v.keys()?));
        }
        let Value::Obj(members) = v.get("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                if m.keys()? != ["value", "unit"] {
                    return Err(format!("metric `{name}` has keys {:?}", m.keys()?));
                }
                Ok(Metric {
                    name: name.clone(),
                    value: m.get("value")?.num()?,
                    unit: m.get("unit")?.str()?.to_string(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            correct: v.get("correct")?.bool()?,
            attempted: v.get("attempted")?.count()?,
            failed: v.get("failed")?.count()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_record_round_trips() {
        let rec = ResultRecord {
            correct: true,
            attempted: 31,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "sim_mhz".into(),
                    value: 0.123_456_789_012_345_67,
                    unit: "MHz".into(),
                },
                Metric {
                    name: "tile.read_line.calls".into(),
                    value: 477_240.0,
                    unit: "count".into(),
                },
                Metric {
                    name: "timeline.ts_err_pct".into(),
                    value: 5.12e-2,
                    unit: "%".into(),
                },
            ],
        };
        let line = rec.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(ResultRecord::from_json(&line).unwrap(), rec);
    }

    #[test]
    fn rejects_extra_or_missing_keys() {
        let extra = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}"#;
        assert!(ResultRecord::from_json(extra).is_err());
        let missing = r#"{"correct": true, "attempted": 1, "metrics": {}}"#;
        assert!(ResultRecord::from_json(missing).is_err());
        let bad_metric =
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1}}}"#;
        assert!(ResultRecord::from_json(bad_metric).is_err());
        let fractional = r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#;
        assert!(ResultRecord::from_json(fractional).is_err());
    }

    #[test]
    fn parses_general_documents() {
        let v = Value::parse(r#" {"a": [1, -2.5e3, null, false], "b": "q\"\\\u0041\n"} "#).unwrap();
        assert_eq!(
            v.get("a").unwrap().arr().unwrap(),
            &[
                Value::Num(1.0),
                Value::Num(-2500.0),
                Value::Null,
                Value::Bool(false)
            ]
        );
        assert_eq!(v.get("b").unwrap().str().unwrap(), "q\"\\A\n");
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{} x").is_err());
        let mut s = String::new();
        write_str(&mut s, "tab\there \"q\" \u{1}");
        assert_eq!(
            Value::parse(&s).unwrap().str().unwrap(),
            "tab\there \"q\" \u{1}"
        );
    }
}
