//! A small JSON value with a writer and a parser: the result line, the trace
//! file and `BENCHMARK.json` are all the JSON this package touches, and no
//! JSON crate resolves offline.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A whole number, written without a fraction.
    UInt(u64),
    /// Any other number, written with every digit needed to read it back.
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    /// Keys keep their order.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn str(text: &str) -> Json {
        Json::Str(text.to_owned())
    }

    pub fn uint(value: u64) -> Json {
        Json::UInt(value)
    }

    pub fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Object(fields.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(value) => Some(*value as f64),
            Json::Num(value) => Some(*value),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(text) => Some(text),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::UInt(value) => write!(out, "{value}").expect("writing to a string"),
            Json::Num(value) => {
                // JSON has no NaN or infinity; a metric that is one is a bug
                // the caller checks for before it gets here.
                assert!(value.is_finite(), "cannot write {value} as JSON");
                write!(out, "{value:?}").expect("writing to a string");
            }
            Json::Str(text) => write_string(text, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { bytes: text.as_bytes(), at: 0 };
    let value = parser.value()?;
    parser.skip_space();
    if parser.at != parser.bytes.len() {
        return Err(format!("trailing input at byte {}", parser.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_owned()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    if self.bytes.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.expect(b']')?;
                        return Ok(Json::Array(items));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.skip_space();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_space();
                    if self.bytes.get(self.at) == Some(&b',') {
                        self.at += 1;
                    } else {
                        self.expect(b'}')?;
                        return Ok(Json::Object(fields));
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII was matched");
        if let Ok(whole) = text.parse::<u64>() {
            return Ok(Json::UInt(whole));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while self.bytes.get(self.at).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
            );
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    let escape = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match escape {
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
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            out.push(hex);
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_units_and_values_round_trip() {
        let metrics = Json::Object(vec![
            (
                "espice.shedder.decide_ns_per_assignment.active".to_owned(),
                Json::object([("value", Json::Num(1884.0625)), ("unit", Json::str("ns"))]),
            ),
            (
                "capacity_events_per_s".to_owned(),
                Json::object([
                    ("value", Json::Num(6.123456789012345e6)),
                    ("unit", Json::str("1/s")),
                ]),
            ),
            (
                "quality.r80_fn_share".to_owned(),
                Json::object([("value", Json::Num(0.0)), ("unit", Json::str("share"))]),
            ),
            ("odd \"name\"\\\n\t\u{1}".to_owned(), Json::str("MB x C µs")),
        ]);
        let line = Json::object([
            ("correct", Json::Bool(true)),
            ("attempted", Json::uint(96_000_000)),
            ("failed", Json::uint(0)),
            ("metrics", metrics),
        ]);
        let text = line.render();
        assert!(!text.contains('\n'), "the result must stay on one line");
        assert_eq!(parse(&text).expect("own output parses"), line);
    }

    #[test]
    fn floats_keep_every_digit() {
        for value in [0.1 + 0.2, 1.0 / 3.0, 1e-9, 123456789.12345679, 5e300] {
            let text = Json::Num(value).render();
            assert_eq!(parse(&text).expect("parses").as_f64(), Some(value), "{text}");
        }
        assert_eq!(Json::Num(2.0).render(), "2.0");
        assert_eq!(Json::uint(2).render(), "2");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "nul", "1 2", "{\"a\": 1,}"] {
            assert!(parse(text).is_err(), "{text:?} must not parse");
        }
    }
}
