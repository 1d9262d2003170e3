//! The hand-rolled JSON the `qaec` frontends speak, without a serde
//! dependency.
//!
//! * **Writer** — [`Object`] and the array renderers: objects of string,
//!   number and boolean fields, rendered in insertion order. `check
//!   --json`, `sweep --json`, every `qaec serve` response and the bench
//!   artifacts all use it, so a field means the same thing everywhere.
//!   Nesting is possible through [`Object::raw`] (the serve protocol's
//!   `points` arrays).
//! * **Reader** — a minimal parser for `qaec serve` request lines
//!   (objects, arrays, strings with escapes, numbers, booleans, null —
//!   no comments): enough for the protocol.

/// Replaces characters the minimal parser cannot round-trip
/// (quotes, backslashes, control characters) with `_`. Values fed
/// through here are harness- or checker-chosen identifiers, never
/// user data that must survive verbatim.
pub fn sanitize(value: &str) -> String {
    value
        .chars()
        .map(|c| {
            if c == '"' || c == '\\' || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// A flat JSON object under construction: fields render in insertion
/// order.
#[derive(Clone, Debug, Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Appends a string field (sanitised, see [`sanitize`]).
    pub fn string(mut self, key: &str, value: &str) -> Object {
        self.fields
            .push((key.to_string(), format!("\"{}\"", sanitize(value))));
        self
    }

    /// Appends a float field with `decimals` fractional digits.
    pub fn number(mut self, key: &str, value: f64, decimals: usize) -> Object {
        self.fields
            .push((key.to_string(), format!("{value:.decimals$}")));
        self
    }

    /// Appends an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Object {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Appends a boolean field.
    pub fn boolean(mut self, key: &str, value: bool) -> Object {
        self.fields.push((
            key.to_string(),
            if value { "true" } else { "false" }.to_string(),
        ));
        self
    }

    /// Appends a pre-rendered JSON value verbatim — the escape hatch
    /// for nested arrays/objects (e.g. a `"points"` array of
    /// [`Object::render`]ed rows). The caller owns the value's
    /// well-formedness.
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Object {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Appends every field of `other`, in order — used to graft a
    /// shared row shape (the CLI's `check --json` object) into a
    /// larger envelope (a serve response) without re-listing fields.
    pub fn extend(mut self, other: Object) -> Object {
        self.fields.extend(other.fields);
        self
    }

    /// Renders the object on one line: `{"k": v, ...}`.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a stable, human-diffable array: one object per line,
/// two-space indent, trailing newline — the bench artifact shape.
pub fn array(objects: &[Object]) -> String {
    let mut out = String::from("[\n");
    for (i, object) in objects.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&object.render());
        out.push_str(if i + 1 < objects.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Renders an array on ONE line: `[{...}, {...}]` — the shape
/// line-delimited protocols need for nested rows ([`Object::raw`]).
pub fn array_inline(objects: &[Object]) -> String {
    let body: Vec<String> = objects.iter().map(Object::render).collect();
    format!("[{}]", body.join(", "))
}

/// A parsed JSON value — just enough structure for the request shapes.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object (first occurrence).
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at byte {}, found {:?}",
                byte as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` in object, found {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` in array, found {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u code point".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar, not a byte. The input is
                    // already a `str`, so decoding one scalar is O(1);
                    // re-validating the whole rest made long lines
                    // quadratic.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("not a character boundary at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Parses one complete JSON value with nothing but whitespace after it.
pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(format!("trailing garbage at byte {}", reader.pos));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_render_flat_json() {
        let o = Object::new()
            .string("name", "qft\"3\\k4\n")
            .number("wall_ms", 1.5, 3)
            .int("max_nodes", 42);
        assert_eq!(
            o.render(),
            "{\"name\": \"qft_3_k4_\", \"wall_ms\": 1.500, \"max_nodes\": 42}"
        );
        let rendered = array(&[Object::new().int("a", 1), Object::new().int("a", 2)]);
        assert_eq!(rendered, "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n");
        assert_eq!(array(&[]), "[\n]\n");
    }

    #[test]
    fn nested_and_boolean_rendering() {
        let rows = [Object::new().int("k", 1), Object::new().int("k", 2)];
        assert_eq!(array_inline(&rows), "[{\"k\": 1}, {\"k\": 2}]");
        assert_eq!(array_inline(&[]), "[]");
        let envelope = Object::new()
            .boolean("ok", true)
            .raw("points", array_inline(&rows))
            .extend(Object::new().string("cache", "hit"));
        assert_eq!(
            envelope.render(),
            "{\"ok\": true, \"points\": [{\"k\": 1}, {\"k\": 2}], \"cache\": \"hit\"}"
        );
    }
}
