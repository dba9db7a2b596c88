//! The location hierarchy: interfaces ⊂ devices ⊂ router groups.
//!
//! Rela views forwarding paths at one of three granularities (paper §4):
//! interface level, router (device) level, or router-group level. A
//! [`Granularity`] selects the view; the location database
//! ([`crate::db::LocationDb`]) resolves names and attributes.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The level at which forwarding hops are named.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Hops are physical interfaces (finest; paper reports ~10× cost).
    Interface,
    /// Hops are routers.
    Device,
    /// Hops are router groups (coarsest).
    Group,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Granularity::Interface => "interface",
            Granularity::Device => "device",
            Granularity::Group => "group",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Granularity {
    type Err = String;

    /// Parse the `Display` rendering back: `group`, `device` or
    /// `interface`.
    fn from_str(s: &str) -> Result<Granularity, String> {
        match s {
            "interface" => Ok(Granularity::Interface),
            "device" => Ok(Granularity::Device),
            "group" => Ok(Granularity::Group),
            other => Err(format!(
                "unknown granularity `{other}` (expected group, device, or interface)"
            )),
        }
    }
}

impl Serialize for Granularity {
    fn to_value(&self) -> Value {
        // serde's externally-tagged unit-variant form: the variant name
        Value::Str(
            match self {
                Granularity::Interface => "Interface",
                Granularity::Device => "Device",
                Granularity::Group => "Group",
            }
            .to_owned(),
        )
    }
}

impl Deserialize for Granularity {
    fn from_value(value: &Value) -> Result<Granularity, serde::Error> {
        match value.as_str() {
            Some("Interface") => Ok(Granularity::Interface),
            Some("Device") => Ok(Granularity::Device),
            Some("Group") => Ok(Granularity::Group),
            _ => Err(serde::Error::mismatch("a granularity variant name", value)),
        }
    }
}

/// The special location that terminates the path of a dropped packet
/// (paper §5.1: "we model this behavior as a special path with a single
/// location `drop`").
pub const DROP_LOCATION: &str = "drop";

/// A router and its metadata.
///
/// Interface names are globally unique and, by convention, formed as
/// `"{device}:{port}"` so an interface resolves to its device by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Globally unique router name, e.g. `"A1-r03"`.
    pub name: String,
    /// Router group, e.g. `"A1"`. Groups aggregate devices with the same
    /// role in the same site.
    pub group: String,
    /// Free-form attributes: `region`, `asn`, `tier`, `role`, ...
    pub attrs: BTreeMap<String, String>,
    /// Interfaces on this device.
    pub interfaces: Vec<String>,
}

impl Device {
    /// Create a device with no extra attributes or interfaces.
    pub fn new(name: impl Into<String>, group: impl Into<String>) -> Device {
        Device {
            name: name.into(),
            group: group.into(),
            attrs: BTreeMap::new(),
            interfaces: Vec::new(),
        }
    }

    /// Builder-style attribute insertion.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Device {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// The value of an attribute, with `name` and `group` always available.
    pub fn attr(&self, key: &str) -> Option<&str> {
        match key {
            "name" | "device" => Some(&self.name),
            "group" => Some(&self.group),
            _ => self.attrs.get(key).map(String::as_str),
        }
    }

    /// The canonical interface name for a port on this device.
    pub fn interface_name(device: &str, port: &str) -> String {
        format!("{device}:{port}")
    }
}

impl Serialize for Device {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("name", self.name.to_value()),
            ("group", self.group.to_value()),
            ("attrs", self.attrs.to_value()),
            ("interfaces", self.interfaces.to_value()),
        ])
    }
}

impl Deserialize for Device {
    fn from_value(value: &Value) -> Result<Device, serde::Error> {
        Ok(Device {
            name: serde::field(value, "name")?,
            group: serde::field(value, "group")?,
            attrs: serde::field(value, "attrs")?,
            interfaces: serde::field(value, "interfaces")?,
        })
    }
}

/// Resolve an interface name back to its device (the part before `:`).
pub fn interface_device(interface: &str) -> &str {
    interface
        .split_once(':')
        .map(|(d, _)| d)
        .unwrap_or(interface)
}

/// A glob pattern supporting `*` (any substring) and `?` (any one char).
///
/// Used by `where` queries to select locations, e.g.
/// `where(group == "A*")`.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    // iterative glob with backtracking over the last `*`
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut star_ti) = (None::<usize>, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            star_ti = ti;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_attr_lookup() {
        let d = Device::new("A1-r01", "A1").with_attr("region", "A");
        assert_eq!(d.attr("name"), Some("A1-r01"));
        assert_eq!(d.attr("device"), Some("A1-r01"));
        assert_eq!(d.attr("group"), Some("A1"));
        assert_eq!(d.attr("region"), Some("A"));
        assert_eq!(d.attr("tier"), None);
    }

    #[test]
    fn interface_name_roundtrip() {
        let ifname = Device::interface_name("A1-r01", "eth0");
        assert_eq!(ifname, "A1-r01:eth0");
        assert_eq!(interface_device(&ifname), "A1-r01");
        assert_eq!(interface_device("plain"), "plain");
    }

    #[test]
    fn glob_literal() {
        assert!(glob_match("A1", "A1"));
        assert!(!glob_match("A1", "A2"));
        assert!(!glob_match("A1", "A11"));
    }

    #[test]
    fn glob_star() {
        assert!(glob_match("A*", "A1"));
        assert!(glob_match("A*", "A"));
        assert!(glob_match("A*", "A1-r01"));
        assert!(!glob_match("A*", "B1"));
        assert!(glob_match("*r01", "A1-r01"));
        assert!(glob_match("A*r*", "A1-r01"));
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
    }

    #[test]
    fn glob_question() {
        assert!(glob_match("A?", "A1"));
        assert!(!glob_match("A?", "A"));
        assert!(!glob_match("A?", "A12"));
        assert!(glob_match("?1-r??", "A1-r03"));
    }

    #[test]
    fn glob_backtracking() {
        assert!(glob_match("*ab*ab", "abxabab"));
        assert!(glob_match("*ab*ab", "abxab"));
        assert!(!glob_match("*ab*ab", "ab"));
        assert!(!glob_match("*ab*ab", "abxa"));
    }

    #[test]
    fn granularity_display() {
        assert_eq!(Granularity::Interface.to_string(), "interface");
        assert_eq!(Granularity::Device.to_string(), "device");
        assert_eq!(Granularity::Group.to_string(), "group");
    }

    #[test]
    fn granularity_names_round_trip_and_nothing_else_parses() {
        for g in [
            Granularity::Interface,
            Granularity::Device,
            Granularity::Group,
        ] {
            assert_eq!(g.to_string().parse::<Granularity>(), Ok(g));
        }
        for other in ["router", "Group", ""] {
            let err = other.parse::<Granularity>().unwrap_err();
            assert!(err.starts_with("unknown granularity"), "{err}");
        }
    }
}
