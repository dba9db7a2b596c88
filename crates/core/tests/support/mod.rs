//! Test support shared by `properties.rs` and `differential_fuzz.rs`:
//! the RIR's reference semantics and the end-to-end truth oracle built
//! on it. Each test binary uses part of it.
#![allow(dead_code)]

pub(crate) mod semantics;
pub(crate) mod truth;
