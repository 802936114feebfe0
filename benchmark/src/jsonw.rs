//! Writing JSON: documents are built as `sim_trace::json::JsonValue` (the
//! type the in-tree parser produces) and serialised here, so everything the
//! benchmark prints can be parsed back before exit.

use gpu_nc_repro::sim_trace::json::JsonValue;

/// An object from `(key, value)` pairs, in the given order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(v: impl Into<f64>) -> JsonValue {
    JsonValue::Num(v.into())
}

/// Counts: exact in an `f64` up to 2^53, far beyond anything counted here.
pub fn count(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

pub fn text(v: impl Into<String>) -> JsonValue {
    JsonValue::Str(v.into())
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_into(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Shortest representation that parses back to the same f64; JSON
        // has no NaN or infinity.
        JsonValue::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        JsonValue::Num(_) => out.push_str("null"),
        JsonValue::Str(s) => escape(s, out),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape(k, out);
                out.push(':');
                write_into(item, out);
            }
            out.push('}');
        }
    }
}

/// `v` on one line.
pub fn to_line(v: &JsonValue) -> String {
    let mut out = String::new();
    write_into(v, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_nc_repro::sim_trace::json::parse;

    #[test]
    fn round_trips_through_the_in_tree_parser() {
        let doc = obj([
            ("name", text("a \"quoted\"\\ line\nbreak")),
            // 0.30000000000000004: needs all 17 digits to round-trip.
            ("value", num(0.1 + 0.2)),
            ("n", count(1 << 40)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            ("list", JsonValue::Arr(vec![num(0.1), num(-3.0), num(1e-9)])),
            ("nan", num(f64::NAN)),
        ]);
        let line = to_line(&doc);
        assert!(!line.contains('\n'));
        let back = parse(&line).expect("valid JSON");
        assert_eq!(back.get("value").and_then(|v| v.as_f64()), Some(0.1 + 0.2));
        assert_eq!(
            back.get("n").and_then(|v| v.as_f64()),
            Some((1u64 << 40) as f64)
        );
        assert_eq!(
            back.get("name").and_then(|v| v.as_str()),
            Some("a \"quoted\"\\ line\nbreak")
        );
        assert_eq!(back.get("nan"), Some(&JsonValue::Null));
        assert_eq!(
            back.get("list").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(3)
        );
    }
}
