//! The record split against the keyed decoder. For any entry of a JSON
//! snapshot, the framer either locates `flow` and `graph` value spans
//! that decode to what a keyed lookup of the parsed entry finds
//! (`serde::field` over `serde_json::from_str`), or refuses the entry
//! with that lookup's message. Both engines — the pipelined one and the
//! batch reference, `SnapshotReader` — read an entry through this one
//! split, so the split is checked here against code neither shares.

use proptest::prelude::*;
use rela_net::{
    decode_graph_span, linear_graph, FlowSpec, ForwardingGraph, SnapshotError, SnapshotFramer,
    SnapshotReader,
};
use serde::Value;

/// What may sit between two tokens.
const BLANKS: [&str; 5] = ["", " ", "\n", "\t ", "\r\n  "];

/// Spellings of `flow`, with and without escapes.
const FLOW_KEYS: [&str; 3] = [r#""flow""#, r#""fl\u006fw""#, r#""\u0066lo\u0077""#];

/// Spellings of `graph`, with and without escapes.
const GRAPH_KEYS: [&str; 3] = [r#""graph""#, r#""gr\u0061ph""#, r#""\u0067raph""#];

/// Keys that are neither, some of them close.
const OTHER_KEYS: [&str; 6] = [
    r#""note""#,
    r#""fl\\ow""#,
    r#""Flow""#,
    r#""graphs""#,
    r#""""#,
    r#""\u0067""#,
];

/// Values a member may carry: flows, graphs (compact and pretty), and
/// values of neither shape, some holding `flow` and `graph` keys of
/// their own.
fn values() -> Vec<String> {
    let graph = linear_graph(&["x1", "A1", "D1"]);
    vec![
        r#"{"dst":"10.0.0.0/24","ingress":"x1"}"#.to_owned(),
        r#"{ "ingress" : "x\"1", "dst" : "10.0.1.0/24", "src": "10.9.0.0/16" }"#.to_owned(),
        serde_json::to_string(&graph).unwrap(),
        serde_json::to_string_pretty(&graph).unwrap(),
        serde_json::to_string(&ForwardingGraph::default()).unwrap(),
        "null".to_owned(),
        "7".to_owned(),
        r#""graph""#.to_owned(),
        r#"[1,{"flow":0,"graph":[]}]"#.to_owned(),
        r#"{"flow":{"dst":"bogus"},"graph":null}"#.to_owned(),
        r#"{"dst":"bogus","ingress":"x1"}"#.to_owned(),
    ]
}

/// One `key: value` member, the key drawn from `keys`.
fn member(keys: &'static [&'static str]) -> impl Strategy<Value = String> {
    let pick = (
        0..keys.len(),
        0..values().len(),
        0..BLANKS.len(),
        0..BLANKS.len(),
    );
    pick.prop_map(move |(key, value, a, b)| {
        format!(
            "{}{}:{}{}",
            keys[key],
            BLANKS[a],
            BLANKS[b],
            values()[value]
        )
    })
}

/// An object of members in any order: usually one `flow` and one
/// `graph` among others, sometimes either missing or repeated.
fn object() -> impl Strategy<Value = String> {
    let members = (
        proptest::collection::vec(member(&OTHER_KEYS), 0..3),
        proptest::collection::vec(member(&FLOW_KEYS), 0..3),
        proptest::collection::vec(member(&GRAPH_KEYS), 0..3),
        any::<u64>(),
        0..BLANKS.len(),
    );
    members.prop_map(|(mut all, flows, graphs, mut order, blank)| {
        all.extend(flows);
        all.extend(graphs);
        // a deterministic shuffle, so both key orders (and every other)
        // come up
        for ix in (1..all.len()).rev() {
            all.swap(ix, (order % (ix as u64 + 1)) as usize);
            order /= ix as u64 + 1;
        }
        let sep = format!("{},{}", BLANKS[blank], BLANKS[(blank + 1) % BLANKS.len()]);
        format!("{{{}{}{}}}", BLANKS[blank], all.join(&sep), BLANKS[blank])
    })
}

/// An entry that is not an object, one of them wrapping one that is.
fn not_object() -> impl Strategy<Value = String> {
    let values = values();
    let wrapped = format!(r#"[{{"flow":{},"graph":{}}}]"#, values[0], values[2]);
    let mut entries = vec![wrapped, "[]".to_owned()];
    entries.extend(values.into_iter().filter(|value| !value.starts_with('{')));
    (0..entries.len()).prop_map(move |ix| entries[ix].clone())
}

/// A generated entry, an object three times in four.
fn record() -> impl Strategy<Value = String> {
    prop_oneof![object(), object(), object(), not_object()]
}

/// What a keyed lookup of the parsed entry makes of it: the message a
/// reader must refuse it with, or `None` for an entry it can split. A
/// repeated key is refused, whichever occurrence a lookup would find.
fn refusal(entry: &Value) -> Option<String> {
    if let Value::Obj(members) = entry {
        for name in ["flow", "graph"] {
            if members.iter().filter(|(key, _)| key == name).count() > 1 {
                return Some(format!("duplicate field `{name}`"));
            }
        }
    }
    ["flow", "graph"]
        .iter()
        .find_map(|name| serde::field::<Value>(entry, name).err())
        .map(|e| e.to_string())
}

fn message<T>(result: Result<T, SnapshotError>) -> Result<T, String> {
    result.map_err(|e| e.message().to_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_split_is_the_keyed_decoders(record in record(), blank in 0..BLANKS.len()) {
        let doc = format!("{{\"fecs\":[{}{record}]}}", BLANKS[blank]);
        let start = (9 + BLANKS[blank].len()) as u64;
        let entry: Value = serde_json::from_str(&record).expect("generated entries are JSON");
        let framed = SnapshotFramer::new(doc.as_bytes(), "t").next().expect("one entry");
        let read = SnapshotReader::new(doc.as_bytes()).next().expect("one entry");
        match (framed, refusal(&entry)) {
            (Ok(raw), None) => {
                prop_assert_eq!((raw.offset, raw.index), (start, 0));
                let flow = serde::field::<FlowSpec>(&entry, "flow").map_err(|e| e.to_string());
                let graph =
                    serde::field::<ForwardingGraph>(&entry, "graph").map_err(|e| e.to_string());
                let split_flow = message(raw.decode_flow(None).map(|(flow, _)| flow));
                prop_assert_eq!(&split_flow, &flow, "{}", record);
                let split_graph = decode_graph_span(&raw.graph).map_err(|(m, _)| m);
                prop_assert_eq!(&split_graph, &graph, "{}", record);
                // the batch reference reads the same split: both values,
                // or the flow's failure before the graph's
                let expected = flow.and_then(|flow| graph.map(|graph| (flow, graph)));
                prop_assert_eq!(message(read), expected, "{}", record);
            }
            (Err(e), Some(refused)) => {
                prop_assert_eq!(e.message(), refused.as_str(), "{}", record);
                prop_assert_eq!(e.byte_offset(), Some(start));
                prop_assert_eq!(e.entry_index(), Some(0));
                prop_assert_eq!(e.label(), Some("t"));
                prop_assert_eq!(message(read), Err(refused), "{}", record);
            }
            (framed, refused) => {
                let framed = framed.map(|raw| String::from_utf8_lossy(&raw.json_bytes()).into_owned());
                prop_assert!(false, "{record}: framed {framed:?}, keyed lookup {refused:?}");
            }
        }
    }
}
