//! Small helpers over the serde stand-in's value tree.

use serde::Value;

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The key/value pairs of an object; empty for anything else.
pub fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(entries) => entries,
        _ => &[],
    }
}

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    entries(v).iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}
