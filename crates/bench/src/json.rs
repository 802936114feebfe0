//! Minimal JSON tree + pretty printer, so experiments emit machine-readable
//! records without an external serialization crate. (The matching parser,
//! used to read committed files back, is `sim_trace::json`.)

use std::fmt;

use sim_trace::json::Escaped;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Integers are kept exact rather than routed through `f64`.
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// An object from `(key, value)` pairs, in the order given.
pub fn obj(fields: &[(&str, &dyn ToJson)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_json()))
            .collect(),
    )
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl Json {
    /// Append a member to an object.
    pub fn push(&mut self, key: &str, value: impl ToJson) {
        match self {
            Json::Obj(members) => members.push((key.to_string(), value.to_json())),
            other => panic!("`{key}` pushed onto a non-object: {other}"),
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Num(_) => write!(f, "null"),
            Json::Str(s) => write!(f, "\"{}\"", Escaped(s)),
            Json::Arr(v) if v.is_empty() => f.write_str("[]"),
            Json::Arr(v) => {
                f.write_str("[\n")?;
                for (i, item) in v.iter().enumerate() {
                    f.write_str(&pad)?;
                    item.fmt_indented(f, depth + 1)?;
                    f.write_str(if i + 1 < v.len() { ",\n" } else { "\n" })?;
                }
                write!(f, "{close}]")
            }
            Json::Obj(kv) if kv.is_empty() => f.write_str("{}"),
            Json::Obj(kv) => {
                f.write_str("{\n")?;
                for (i, (k, v)) in kv.iter().enumerate() {
                    write!(f, "{pad}\"{}\": ", Escaped(k))?;
                    v.fmt_indented(f, depth + 1)?;
                    f.write_str(if i + 1 < kv.len() { ",\n" } else { "\n" })?;
                }
                write!(f, "{close}}}")
            }
        }
    }
}

/// Pretty-printed with two-space indentation.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}
impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}
/// Integers stay exact ([`Json::Int`]).
macro_rules! int_to_json {
    ($($t:ty)*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        })*
    };
}
int_to_json!(usize u64 u32 i64);
impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}
impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
/// A map is an object in key order.
impl<K: AsRef<str>, V: ToJson> ToJson for std::collections::BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_printer_keeps_ints_exact_and_whole_floats_decimal() {
        let doc = obj(&[
            ("id", &"t"),
            ("data", &vec![obj(&[("bytes", &16usize), ("us", &2.0)])]),
        ]);
        let text = doc.to_string();
        assert!(text.contains("\"id\": \"t\""));
        assert!(text.contains("\"bytes\": 16"));
        assert!(
            text.contains("\"us\": 2.0"),
            "whole floats keep a decimal: {text}"
        );
    }

    #[test]
    fn json_escapes_strings() {
        let j = Json::Str("a\"b\\c\nd".to_string());
        assert_eq!(j.to_string(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn a_hostile_key_round_trips_through_the_parser() {
        let key = "a\"b\\c\nd\u{1}";
        let text = obj(&[(key, &1usize)]).to_string();
        let doc = sim_trace::json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(doc.get(key).and_then(|v| v.as_f64()), Some(1.0));
    }
}
