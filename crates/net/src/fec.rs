//! Flow equivalence classes (FECs).
//!
//! A *flow* is "a 5-tuple that starts at a particular point in the
//! network" (paper §2.3); flows with identical forwarding paths in both
//! snapshots are aggregated into equivalence classes. We key classes by
//! destination prefix, optional source prefix, and ingress device — the
//! fields the paper's prefix predicates filter on (§7).

use crate::prefix::Ipv4Prefix;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// The traffic descriptor of one flow equivalence class.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowSpec {
    /// Destination prefix.
    pub dst: Ipv4Prefix,
    /// Source prefix, when the class is source-specific. Omitted from the
    /// serialized form when absent.
    pub src: Option<Ipv4Prefix>,
    /// Ingress device where the flow enters the network.
    pub ingress: String,
}

impl Serialize for FlowSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![("dst", self.dst.to_value())];
        if let Some(src) = &self.src {
            fields.push(("src", src.to_value()));
        }
        fields.push(("ingress", self.ingress.to_value()));
        Value::obj(fields)
    }
}

impl Deserialize for FlowSpec {
    fn from_value(value: &Value) -> Result<FlowSpec, serde::Error> {
        Ok(FlowSpec {
            dst: serde::field(value, "dst")?,
            src: serde::field_or_default(value, "src")?,
            ingress: serde::field(value, "ingress")?,
        })
    }
}

impl FlowSpec {
    /// A destination-and-ingress keyed class (the common case).
    pub fn new(dst: Ipv4Prefix, ingress: impl Into<String>) -> FlowSpec {
        FlowSpec {
            dst,
            src: None,
            ingress: ingress.into(),
        }
    }

    /// Add a source prefix.
    pub fn with_src(mut self, src: Ipv4Prefix) -> FlowSpec {
        self.src = Some(src);
        self
    }

    /// Read a flow key straight from its serialized bytes when they are
    /// exactly what the `Serialize` impl above emits for a key whose
    /// strings need no escaping —
    /// `{"dst":"…"[,"src":"…"],"ingress":"…"}`, no whitespace, no
    /// backslash and no byte below 0x20 inside a string — without
    /// building a `Value` tree. Answers `None`, never an error, for every
    /// other span, valid or not: the `Value` decoder behind it owns
    /// non-canonical encodings and every error text. On a span it does
    /// accept, the strings are their own bytes, so the result is what
    /// that decoder returns.
    pub(crate) fn from_canonical_json(span: &[u8]) -> Option<FlowSpec> {
        /// The contents of an escape-free string whose opening quote was
        /// just consumed; leaves `rest` after the closing quote.
        fn plain_string<'a>(rest: &mut &'a [u8]) -> Option<&'a str> {
            let end = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
            if rest[end] != b'"' {
                return None;
            }
            let text = std::str::from_utf8(&rest[..end]).ok()?;
            *rest = &rest[end + 1..];
            Some(text)
        }
        let mut rest = span.strip_prefix(b"{\"dst\":\"")?;
        let dst = plain_string(&mut rest)?.parse().ok()?;
        let src = match rest.strip_prefix(b",\"src\":\"") {
            Some(after) => {
                rest = after;
                Some(plain_string(&mut rest)?.parse().ok()?)
            }
            None => None,
        };
        rest = rest.strip_prefix(b",\"ingress\":\"")?;
        let ingress = plain_string(&mut rest)?.to_owned();
        (rest == b"}").then_some(FlowSpec { dst, src, ingress })
    }
}

impl fmt::Display for FlowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.dst)?;
        if let Some(src) = &self.src {
            write!(f, ", src={src}")?;
        }
        write!(f, ", ingress={})", self.ingress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn display_matches_paper_table1_style() {
        let flow = FlowSpec::new(p("10.1.0.0/16"), "x1");
        assert_eq!(flow.to_string(), "(10.1.0.0/16, ingress=x1)");
        let flow2 = flow.clone().with_src(p("10.9.0.0/16"));
        assert_eq!(
            flow2.to_string(),
            "(10.1.0.0/16, src=10.9.0.0/16, ingress=x1)"
        );
    }

    #[test]
    fn ordering_is_stable() {
        let a = FlowSpec::new(p("10.0.0.0/16"), "x1");
        let b = FlowSpec::new(p("10.1.0.0/16"), "x1");
        assert!(a < b);
    }

    /// The join map shards on flow keys: 10,000 `/24` destinations over
    /// 40 ingress names leave no shard of 64 above twice the mean.
    #[test]
    fn flow_keys_spread_over_shards() {
        use rela_automata::FixedState;
        use std::hash::BuildHasher;
        let mut shards = [0usize; 64];
        for i in 0..10_000u32 {
            let dst = Ipv4Prefix::from_octets(10, (i / 256) as u8, (i % 256) as u8, 0, 24);
            let flow = FlowSpec::new(dst, format!("R{}E-r{}", i % 40 / 4, i % 4));
            shards[FixedState::default().hash_one(&flow) as usize % 64] += 1;
        }
        let mean = 10_000 / 64;
        assert!(shards.iter().all(|&n| n <= 2 * mean), "{shards:?}");
    }

    #[test]
    fn serde_roundtrip() {
        let flow = FlowSpec::new(p("10.1.0.0/16"), "x1").with_src(p("10.2.0.0/24"));
        let json = serde_json::to_string(&flow).unwrap();
        let back: FlowSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, flow);
    }

    #[test]
    fn serde_omits_missing_src() {
        let flow = FlowSpec::new(p("10.1.0.0/16"), "x1");
        let json = serde_json::to_string(&flow).unwrap();
        assert!(!json.contains("src"));
    }

    /// What the `Value` decoder makes of a flow span — the reader
    /// `decode_flow` had alone before the direct one sat in front of it.
    fn through_a_value(span: &[u8]) -> Option<FlowSpec> {
        let text = std::str::from_utf8(span).ok()?;
        serde_json::from_str::<FlowSpec>(text).ok()
    }

    /// The direct reader may decline a span, but may never answer
    /// differently from the `Value` decoder — least of all accept a
    /// span that decoder refuses.
    fn assert_direct_agrees(span: &[u8]) -> Option<FlowSpec> {
        let direct = FlowSpec::from_canonical_json(span);
        if direct.is_some() {
            assert_eq!(
                direct,
                through_a_value(span),
                "{}",
                String::from_utf8_lossy(span)
            );
        }
        direct
    }

    #[test]
    fn the_direct_reader_takes_what_the_writers_emit() {
        let plain = FlowSpec::new(p("10.1.0.0/16"), "R0E-r1");
        for flow in [
            plain.clone(),
            plain.clone().with_src(p("0.0.0.0/0")),
            FlowSpec::new(p("255.255.255.255/32"), ""),
            FlowSpec::new(p("10.0.0.0/8"), "zürich/é-1 \u{7f}"),
        ] {
            let json = serde_json::to_string(&flow).unwrap();
            assert_eq!(assert_direct_agrees(json.as_bytes()), Some(flow), "{json}");
        }
        // an ingress the writer has to escape is the `Value` decoder's
        for ingress in ["a\"b", "a\\b", "tab\there", "\u{1}"] {
            let flow = FlowSpec::new(p("10.0.0.0/8"), ingress);
            let json = serde_json::to_string(&flow).unwrap();
            assert_eq!(FlowSpec::from_canonical_json(json.as_bytes()), None);
            assert_eq!(through_a_value(json.as_bytes()), Some(flow), "{json}");
        }
    }

    #[test]
    fn the_direct_reader_declines_every_other_encoding() {
        // each decodes to a flow — or fails — in the `Value` decoder,
        // whose business it stays
        let declined: [&[u8]; 16] = [
            br#"{"dst":"10.0.0.0/24", "ingress":"x1"}"#,
            br#" {"dst":"10.0.0.0/24","ingress":"x1"}"#,
            br#"{"dst":"10.0.0.0/24","ingress":"x1"} "#,
            br#"{"dst":"10.0.0.0/24","ingress":"x1"}}"#,
            br#"{"ingress":"x1","dst":"10.0.0.0/24"}"#,
            br#"{"dst":"10.0.0.0/24","dst":"10.0.1.0/24","ingress":"x1"}"#,
            br#"{"dst":"10.0.0.0/24","ingress":"x1","ingress":"x2"}"#,
            br#"{"dst":"10.0.0.0/24","src":null,"ingress":"x1"}"#,
            br#"{"dst":"10.0.0.0/24","ingress":"\u0041"}"#,
            br#"{"dst":"10.0.0.0\/24","ingress":"x1"}"#,
            br#"{"dst":"256.0.0.0/8","ingress":"x1"}"#,
            br#"{"dst":"10.0.0.0/33","ingress":"x1"}"#,
            b"{\"dst\":\"10.0.0.0/24\",\"ingress\":\"x\x011\"}",
            b"{\"dst\":\"10.0.0.0/24\",\"ingress\":\"x\xff1\"}",
            br#"{"dst":"10.0.0.0/24","ingress":"x1""#,
            br#"{"dst":"10.0.0.0/24"}"#,
        ];
        for span in declined {
            assert_eq!(
                FlowSpec::from_canonical_json(span),
                None,
                "{}",
                String::from_utf8_lossy(span)
            );
        }
        // what the direct reader declined still decodes where it did
        assert!(through_a_value(declined[0]).is_some());
        assert!(through_a_value(declined[4]).is_some());
        assert!(through_a_value(declined[7]).is_some());
        assert_eq!(through_a_value(declined[8]).unwrap().ingress, "A");
        assert!(through_a_value(declined[10]).is_none());
    }

    /// Characters an ingress name is drawn from: plain, the two the
    /// writer must escape, the ones it escapes by name or by number,
    /// DEL, and two- to four-byte UTF-8.
    const INGRESS_ALPHABET: [char; 16] = [
        'x', '1', '-', ' ', '/', '{', ',', '"', '\\', '\n', '\t', '\u{1}', '\u{7f}', 'é', '→', '𝔸',
    ];

    fn flow_strategy() -> impl Strategy<Value = FlowSpec> {
        let prefix = || (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len));
        let ingress =
            proptest::collection::vec(proptest::sample::select(INGRESS_ALPHABET.to_vec()), 0..8);
        (prefix(), any::<bool>(), prefix(), ingress).prop_map(|(dst, sourced, src, ingress)| {
            FlowSpec {
                dst,
                src: sourced.then_some(src),
                ingress: ingress.into_iter().collect(),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over written flow keys and over every kind of damage a span
        /// can take, the direct reader answers `None` or exactly what
        /// the `Value` decoder answers.
        #[test]
        fn the_direct_reader_never_disagrees_with_the_value_decoder(
            flow in flow_strategy(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let json = serde_json::to_string(&flow).unwrap();
            let span = json.as_bytes();
            let escaped = flow.ingress.chars().any(|c| c == '"' || c == '\\' || c < ' ');
            prop_assert_eq!(assert_direct_agrees(span), (!escaped).then_some(flow.clone()));

            let at = at % (span.len() + 1);
            let spliced = |insert: &[u8], skip: usize| {
                let mut out = span[..at].to_vec();
                out.extend_from_slice(insert);
                out.extend_from_slice(&span[(at + skip).min(span.len())..]);
                out
            };
            // inserted whitespace, a raw control byte, invalid UTF-8, a
            // stray quote or backslash, an arbitrary byte — anywhere
            for insert in [&b" "[..], b"\n", b"\x01", b"\xff", b"\xc3", b"\"", b"\\", &[byte]] {
                assert_direct_agrees(&spliced(insert, 0));
                assert_direct_agrees(&spliced(insert, 1));
            }
            // truncation and trailing bytes
            assert_direct_agrees(&span[..at]);
            for tail in [&b" "[..], b"}", b",", b"\0", &[byte]] {
                assert_direct_agrees(&[span, tail].concat());
            }
            // the same members swapped, duplicated, nulled and escaped
            let dst = serde_json::to_string(&flow.dst).unwrap();
            let ingress = serde_json::to_string(&flow.ingress).unwrap();
            for text in [
                format!(r#"{{"ingress":{ingress},"dst":{dst}}}"#),
                format!(r#"{{"dst":{dst},"dst":{dst},"ingress":{ingress}}}"#),
                format!(r#"{{"dst":{dst},"src":{dst},"src":{dst},"ingress":{ingress}}}"#),
                format!(r#"{{"dst":{dst},"src":null,"ingress":{ingress}}}"#),
                format!(r#"{{"dst":{dst},"ingress":{ingress},"src":{dst}}}"#),
                format!(r#"{{"dst":{dst},"ingress":"\u0041{}}}"#, &ingress[1..]),
                format!(r#"{{"dst":"256.{}","ingress":{ingress}}}"#, &dst[1..dst.len() - 1]),
                format!(r#"{{"dst":"{}/33","ingress":{ingress}}}"#, flow.dst.to_string().split('/').next().unwrap()),
                format!(r#"{{"dst":{dst},"ingress":{ingress},"extra":1}}"#),
            ] {
                assert_direct_agrees(text.as_bytes());
            }
        }
    }
}
