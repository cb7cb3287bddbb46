//! The workspace's one JSON codec: a small strict reader and writer for
//! its own artifacts.
//!
//! Every artifact (manifest, ledger, history, crit/search/quality
//! reports, BENCH files, score tables) is rendered by hand with a pinned
//! field order, so one recursive-descent parser reads them all back. The
//! writer pieces every renderer shares live here too:
//!
//! * [`string_literal`] — the one string escaper (re-exported as
//!   `aml_telemetry::json_string_literal`);
//! * [`number`] — the one `f64` formatter: shortest round-trip or a
//!   fixed number of decimals ([`Precision`]), `null` when non-finite
//!   (JSON has no NaN/Infinity);
//! * `u64_array` / `f64_array` — compact array writers;
//! * the `*_field` readers on [`Value`] — typed member access with one
//!   error wording, where `null` reads back as NaN (or `None`), the
//!   inverse of [`number`].
//!
//! [`Value::render`] and the [`ToJson`] trait pretty-print a value tree
//! that [`parse`] round-trips. Objects preserve key order (they're backed
//! by a `Vec`), numbers are `f64`, and the full escape set of
//! [`string_literal`] (`\" \\ \n \r \t \uXXXX`) plus `\/ \b \f` is
//! accepted.

use std::fmt::Write;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number in this value, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string in this value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The number in this value, with `null` (how [`number`] writes a
    /// non-finite float) read back as NaN.
    pub fn as_f64_or_nan(&self) -> Option<f64> {
        match self {
            Value::Null => Some(f64::NAN),
            other => other.as_f64(),
        }
    }

    /// String member `key` of this object.
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string field '{key}'"))
    }

    /// Non-negative integer member `key` of this object.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing or non-integer field '{key}'"))
    }

    /// Boolean member `key` of this object.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("missing or non-boolean field '{key}'")),
        }
    }

    /// Numeric member `key` of this object; `null` reads back as NaN.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))?
            .as_f64_or_nan()
            .ok_or_else(|| format!("non-numeric field '{key}'"))
    }

    /// Optional numeric member `key` of this object; `null` reads back
    /// as `None`.
    pub fn opt_f64_field(&self, key: &str) -> Result<Option<f64>, String> {
        let v = self.f64_field(key)?;
        Ok((!v.is_nan()).then_some(v))
    }

    /// Array member `key` of this object.
    pub fn array_field(&self, key: &str) -> Result<&[Value], String> {
        self.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("missing or non-array field '{key}'"))
    }

    /// Array-of-integers member `key` of this object.
    pub fn u64_array_field(&self, key: &str) -> Result<Vec<u64>, String> {
        self.array_field(key)?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("non-integer entry in '{key}'"))
            })
            .collect()
    }

    /// Array-of-numbers member `key` of this object; `null` entries read
    /// back as NaN.
    pub fn f64_array_field(&self, key: &str) -> Result<Vec<f64>, String> {
        self.array_field(key)?
            .iter()
            .map(|v| {
                v.as_f64_or_nan()
                    .ok_or_else(|| format!("non-numeric entry in '{key}'"))
            })
            .collect()
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|b| *b as char),
            *pos
        )),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogate pairs don't occur in our writers; map
                        // lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|b| *b as char)));
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // byte stream is valid UTF-8 by construction).
                let rest = unsafe { std::str::from_utf8_unchecked(&bytes[*pos..]) };
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {} (found {:?})",
                    *pos,
                    other.map(|b| *b as char)
                ));
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {} (found {:?})",
                    *pos,
                    other.map(|b| *b as char)
                ));
            }
        }
    }
}

/// JSON string literal with the mandatory escapes: `"`, `\\`, and every
/// control character (`\n`, `\r`, `\t` by name, the rest as `\u00XX`).
pub fn string_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// How [`number`] prints a finite `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Shortest round-trip form (`Display`), deterministic across
    /// platforms and read back bit for bit by [`parse`].
    Shortest,
    /// Exactly this many decimals.
    Fixed(usize),
}

/// An `f64` as a JSON number; non-finite values become `null`, which the
/// `*_field` readers on [`Value`] turn back into NaN.
pub fn number(v: f64, precision: Precision) -> String {
    match precision {
        _ if !v.is_finite() => "null".to_string(),
        Precision::Shortest => format!("{v}"),
        Precision::Fixed(decimals) => format!("{v:.decimals$}"),
    }
}

/// Compact JSON array of integers: `[1,2,3]`.
pub(crate) fn u64_array(vs: &[u64]) -> String {
    let mut out = String::with_capacity(2 + vs.len() * 4);
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Compact JSON array of numbers, each printed by [`number`].
pub(crate) fn f64_array(vs: &[f64], precision: Precision) -> String {
    let mut out = String::with_capacity(2 + vs.len() * 8);
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&number(*v, precision));
    }
    out.push(']');
    out
}

impl Value {
    /// Pretty-print with 2-space indentation.
    ///
    /// Numbers use [`Precision::Shortest`], so a render → [`parse`] →
    /// render cycle is a fixpoint; strings use [`string_literal`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&number(*n, Precision::Shortest)),
            Value::Str(s) => out.push_str(&string_literal(s)),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&string_literal(k));
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Conversion into a [`Value`] — the write-side counterpart of the
/// parser, used by `aml-bench`'s `write_json` for data artifacts (score
/// tables, ALE bands, sweep rows).
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::Num(*self as f64)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Value {
        Value::Num(*self as f64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for std::collections::BTreeMap<String, T> {
    fn to_json(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every precision the workspace's artifacts are written with.
    const PRECISIONS: [Precision; 3] = [
        Precision::Shortest,
        Precision::Fixed(3),
        Precision::Fixed(6),
    ];

    #[test]
    fn render_parse_is_a_fixpoint() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("a \"quoted\"\nline".into())),
            (
                "rows".into(),
                Value::Arr(vec![
                    Value::Num(1.5),
                    Value::Num(-0.000125),
                    Value::Bool(true),
                    Value::Null,
                ]),
            ),
            ("empty_arr".into(), Value::Arr(vec![])),
            ("empty_obj".into(), Value::Obj(vec![])),
        ]);
        let rendered = v.render();
        let reparsed = parse(&rendered).expect("own writer parses");
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.render(), rendered);

        // Each precision: number → parse → number, and the array writers,
        // reproduce their own text.
        let xs = [0.25, 1.0, 2.0, -0.000125, 1234.5678901, 1e-7, 0.1 + 0.2];
        for precision in PRECISIONS {
            for x in xs {
                let text = number(x, precision);
                let back = parse(&text).unwrap().as_f64().unwrap();
                assert_eq!(number(back, precision), text, "{precision:?} {x}");
            }
            let arr = f64_array(&xs, precision);
            let obj = parse(&format!("{{\"xs\":{arr}}}")).unwrap();
            assert_eq!(
                f64_array(&obj.f64_array_field("xs").unwrap(), precision),
                arr
            );
        }
        // Shortest is exact; fixed rounds to its decimals.
        assert_eq!(number(0.25, Precision::Shortest), "0.25");
        assert_eq!(number(1.0, Precision::Shortest), "1");
        assert_eq!(number(2.0 / 3.0, Precision::Fixed(3)), "0.667");
        assert_eq!(number(1.5, Precision::Fixed(6)), "1.500000");
        assert_eq!(f64_array(&[0.5, 2.0], Precision::Shortest), "[0.5,2]");
        let counts = u64_array(&[0, 7, u64::from(u32::MAX)]);
        assert_eq!(counts, "[0,7,4294967295]");
        let obj = parse(&format!("{{\"n\":{counts}}}")).unwrap();
        assert_eq!(u64_array(&obj.u64_array_field("n").unwrap()), counts);
    }

    #[test]
    fn render_emits_null_for_non_finite() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
        for precision in PRECISIONS {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(number(x, precision), "null", "{precision:?} {x}");
            }
            let arr = f64_array(&[1.0, f64::NAN], precision);
            assert!(arr.ends_with(",null]"), "{arr}");
            // ...and the readers turn `null` back into NaN / None.
            let obj = parse(&format!(
                "{{\"x\":{},\"xs\":{arr}}}",
                number(f64::NAN, precision)
            ))
            .unwrap();
            assert!(obj.f64_field("x").unwrap().is_nan());
            assert_eq!(obj.opt_f64_field("x").unwrap(), None);
            assert!(obj.f64_array_field("xs").unwrap()[1].is_nan());
        }
    }

    #[test]
    fn to_json_builds_expected_tree() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("xs".to_string(), vec![1.0f64, 2.5]);
        let v = map.to_json();
        assert_eq!(
            v,
            Value::Obj(vec![(
                "xs".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(2.5)])
            )])
        );
        assert_eq!("s".to_string().to_json(), Value::Str("s".into()));
        assert_eq!(3usize.to_json(), Value::Num(3.0));
        assert_eq!(true.to_json(), Value::Bool(true));
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures_preserving_key_order() {
        let v = parse(r#"{"b": [1, {"x": "y"}], "a": {}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("x").unwrap().as_str(), Some("y"));
        assert_eq!(v.get("a").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\nd\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        // Every control character, the quote and the backslash survive the
        // one escaper and the parser.
        let all: String = (0u8..0x20)
            .map(char::from)
            .chain(['"', '\\', 'é'])
            .collect();
        let literal = string_literal(&all);
        assert!(
            !literal[1..literal.len() - 1].bytes().any(|b| b < 0x20),
            "{literal}"
        );
        assert_eq!(parse(&literal).unwrap().as_str(), Some(all.as_str()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn round_trips_the_manifest_writer() {
        // The telemetry manifest is the most complex document our writers
        // produce; it must parse cleanly.
        let manifest = crate::Manifest {
            binary: "weird\"name\\x".into(),
            seed: 7,
            scale: 0.05,
            threads: 2,
            git: "abc".into(),
            telemetry: "summary".into(),
            wall_time_s: 1.5,
            snapshot: crate::Snapshot::default(),
        };
        let v = parse(&manifest.to_json()).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("binary").unwrap().as_str(), Some("weird\"name\\x"));
        assert_eq!(v.get("spans").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-2.0).as_u64(), None);
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(2.5).as_f64(), Some(2.5));
    }
}
