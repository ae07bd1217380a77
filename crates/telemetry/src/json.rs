//! A minimal JSON writer and reader (no serde — the workspace builds
//! offline).
//!
//! The writer covers what the event schema needs: flat objects, nested
//! arrays of objects, strings, numbers, booleans. Field order is
//! insertion order, so run records diff cleanly. The reader ([`parse`])
//! is a small recursive-descent parser used by `mmaes top` to read
//! status documents and by tests to validate emitted records.

use std::fmt::Write as _;

/// Escapes a string per RFC 8259 (quotes, backslashes, control chars).
pub fn escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len() + 2);
    for character in text.chars() {
        match character {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            control if (control as u32) < 0x20 => {
                let _ = write!(escaped, "\\u{:04x}", control as u32);
            }
            other => escaped.push(other),
        }
    }
    escaped
}

/// Renders an `f64` as JSON: finite values verbatim, non-finite as null
/// (JSON has no Infinity/NaN).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        // Round-trippable but compact: 4 decimals is plenty for
        // -log10(p) and rate reporting; integers render clean.
        if value == value.trunc() && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value:.4}")
        }
    } else {
        "null".to_owned()
    }
}

/// An incremental JSON object writer.
#[derive(Debug, Default)]
pub struct JsonObject {
    buffer: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buffer: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buffer.len() > 1 {
            self.buffer.push(',');
        }
        let _ = write!(self.buffer, "\"{}\":", escape(key));
    }

    /// Adds a string field.
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        let _ = write!(self.buffer, "\"{}\"", escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn unsigned(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buffer, "{value}");
        self
    }

    /// Adds a float field (non-finite values become null).
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buffer.push_str(&number(value));
        self
    }

    /// Adds a boolean field.
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buffer.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buffer.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buffer.push('}');
        self.buffer
    }
}

/// A parsed JSON value (see [`parse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced by the writer for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; field order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole non-negative
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(value) if *value >= 0.0 && *value == value.trunc() => {
                Some(*value as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(text) => Some(text),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(elements) => Some(elements),
            _ => None,
        }
    }
}

/// Parses one JSON document. Errors carry a byte offset and reason.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        position: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.position != parser.bytes.len() {
        return Err(format!(
            "trailing data at byte {} of {}",
            parser.position,
            parser.bytes.len()
        ));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &str) -> String {
        format!("{reason} at byte {}", self.position)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.position += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.position += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.position..].starts_with(word.as_bytes()) {
            self.position += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.position += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            fields.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b'}') => {
                    self.position += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut elements = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.position += 1;
            return Ok(JsonValue::Array(elements));
        }
        loop {
            self.skip_whitespace();
            elements.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b']') => {
                    self.position += 1;
                    return Ok(JsonValue::Array(elements));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.position += 1;
                    return Ok(text);
                }
                Some(b'\\') => {
                    self.position += 1;
                    match self.peek() {
                        Some(b'"') => text.push('"'),
                        Some(b'\\') => text.push('\\'),
                        Some(b'/') => text.push('/'),
                        Some(b'n') => text.push('\n'),
                        Some(b'r') => text.push('\r'),
                        Some(b't') => text.push('\t'),
                        Some(b'b') => text.push('\u{8}'),
                        Some(b'f') => text.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.position + 1..self.position + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.error("bad \\u hex"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u hex"))?;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            text.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.position += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.position += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.position..];
                    let text_rest = std::str::from_utf8(rest)
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    let character = text_rest.chars().next().expect("peeked non-empty");
                    text.push(character);
                    self.position += character.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.position;
        if self.peek() == Some(b'-') {
            self.position += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.position += 1;
        }
        let literal =
            std::str::from_utf8(&self.bytes[start..self.position]).expect("digits are ASCII");
        literal
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number `{literal}` at byte {start}"))
    }
}

/// Renders an array from already-rendered JSON elements.
pub fn array(elements: impl IntoIterator<Item = String>) -> String {
    let mut buffer = String::from("[");
    for (index, element) in elements.into_iter().enumerate() {
        if index > 0 {
            buffer.push(',');
        }
        buffer.push_str(&element);
    }
    buffer.push(']');
    buffer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn objects_render_in_insertion_order() {
        let json = JsonObject::new()
            .string("type", "checkpoint")
            .unsigned("traces", 1000)
            .float("mlp", 7.25)
            .boolean("leaking", true)
            .raw("probes", &array(["{}".to_owned()]))
            .finish();
        assert_eq!(
            json,
            r#"{"type":"checkpoint","traces":1000,"mlp":7.2500,"leaking":true,"probes":[{}]}"#
        );
    }

    #[test]
    fn numbers_stay_json_safe() {
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(308.0), "308");
        assert_eq!(number(5.4321), "5.4321");
    }

    #[test]
    fn empty_object_and_array_render() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array(Vec::new()), "[]");
    }

    #[test]
    fn parser_reads_what_the_writer_writes() {
        let json = JsonObject::new()
            .string("type", "bench")
            .unsigned("schema_version", 1)
            .float("rate", 1234.5)
            .boolean("quick", true)
            .float("nan", f64::NAN)
            .raw("rows", &array(["{\"x\":-2}".to_owned()]))
            .finish();
        let value = parse(&json).expect("valid");
        assert_eq!(value.get("type").and_then(JsonValue::as_str), Some("bench"));
        assert_eq!(
            value.get("schema_version").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(value.get("rate").and_then(JsonValue::as_f64), Some(1234.5));
        assert_eq!(value.get("quick").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(value.get("nan"), Some(&JsonValue::Null));
        let rows = value
            .get("rows")
            .and_then(JsonValue::as_array)
            .expect("rows");
        assert_eq!(rows[0].get("x").and_then(JsonValue::as_f64), Some(-2.0));
    }

    #[test]
    fn parser_handles_escapes_whitespace_and_nesting() {
        let value = parse(" { \"a\\n\\\"b\" : [ 1 , {\"c\": [true, null]} ] } ").expect("valid");
        let inner = value
            .get("a\n\"b")
            .and_then(JsonValue::as_array)
            .expect("array");
        assert_eq!(inner[0].as_f64(), Some(1.0));
        assert_eq!(
            inner[1]
                .get("c")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
        assert_eq!(parse("\"\\u0041\""), Ok(JsonValue::String("A".into())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }
}
