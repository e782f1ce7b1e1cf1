//! The derive macros, checked through JSON text against the layouts serde's
//! defaults produce.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Id(pub u32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Rule {
    /// Unit variants are bare strings.
    None,
    Exact(f64),
    Span {
        /// Doc comments on fields are attributes the parser must skip.
        path: Vec<(String, u32)>,
        pub_like: Option<u16>,
    },
    Both(u8, bool),
}

mod pairs {
    use super::*;
    use serde::{DeError, Value};

    pub fn serialize(map: &HashMap<(Id, String), Rule>) -> Value {
        let mut entries: Vec<(&Id, &String, &Rule)> = map
            .iter()
            .map(|((id, kind), rule)| (id, kind, rule))
            .collect();
        entries.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        serde::Serialize::to_value(&entries)
    }

    pub fn deserialize(v: &Value) -> Result<HashMap<(Id, String), Rule>, DeError> {
        let entries: Vec<(Id, String, Rule)> = serde::Deserialize::from_value(v)?;
        Ok(entries
            .into_iter()
            .map(|(id, kind, rule)| ((id, kind), rule))
            .collect())
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct Bundle {
    pub name: String,
    #[serde(with = "pairs")]
    rules: HashMap<(Id, String), Rule>,
    pub(crate) parent: Option<Id>,
    nested: Vec<Vec<f64>>,
}

#[test]
fn layouts_match_serde_defaults() {
    assert_eq!(serde_json::to_string(&Id(7)).unwrap(), "7");
    assert_eq!(
        serde_json::to_string(&Pair(1, "x".into())).unwrap(),
        r#"[1,"x"]"#
    );
    assert_eq!(serde_json::to_string(&Rule::None).unwrap(), r#""None""#);
    assert_eq!(
        serde_json::to_string(&Rule::Exact(0.5)).unwrap(),
        r#"{"Exact":0.5}"#
    );
    assert_eq!(
        serde_json::to_string(&Rule::Both(3, true)).unwrap(),
        r#"{"Both":[3,true]}"#
    );
    let span = Rule::Span {
        path: vec![("job".into(), 0)],
        pub_like: None,
    };
    assert_eq!(
        serde_json::to_string(&span).unwrap(),
        r#"{"Span":{"path":[["job",0]],"pub_like":null}}"#
    );
}

#[test]
fn structs_round_trip_through_text() {
    let mut rules = HashMap::new();
    rules.insert((Id(2), "cpu".to_string()), Rule::Exact(0.125));
    rules.insert((Id(1), "net".to_string()), Rule::None);
    let bundle = Bundle {
        name: "giraph".into(),
        rules,
        parent: Some(Id(4)),
        nested: vec![vec![1.0, 2.5], vec![]],
    };
    let json = serde_json::to_string(&bundle).unwrap();
    assert_eq!(
        json,
        r#"{"name":"giraph","rules":[[1,"net","None"],[2,"cpu",{"Exact":0.125}]],"parent":4,"nested":[[1.0,2.5],[]]}"#
    );
    assert_eq!(serde_json::from_str::<Bundle>(&json).unwrap(), bundle);
    let pretty = serde_json::to_string_pretty(&bundle).unwrap();
    assert_eq!(serde_json::from_str::<Bundle>(&pretty).unwrap(), bundle);
}

#[test]
fn field_order_and_absence() {
    // Keys out of declaration order, an unknown key, an absent Option.
    let json = r#"{"nested":[],"extra":1,"rules":[],"name":"n"}"#;
    let bundle: Bundle = serde_json::from_str(json).unwrap();
    assert_eq!(bundle.parent, None);
    assert_eq!(bundle.name, "n");
    let err = serde_json::from_str::<Bundle>(r#"{"name":"n","rules":[]}"#).unwrap_err();
    assert!(err.to_string().contains("nested"), "{err}");
    assert!(serde_json::from_str::<Rule>(r#""Nope""#).is_err());
    assert!(serde_json::from_str::<Rule>(r#"{"Exact":"x"}"#).is_err());
}
