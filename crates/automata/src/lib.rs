//! # rela-automata
//!
//! Symbolic finite-state automata and transducers: the decision-procedure
//! substrate for relational network verification (SIGCOMM 2024, "Relational
//! Network Verification").
//!
//! The paper's tool compiles relational change specifications to *regular
//! relations* and decides them with automaton algorithms (its
//! implementation uses OpenFST/HFST). This crate provides the same
//! machinery from scratch:
//!
//! - [`Regex`] → [`Nfa`] (Thompson construction) for path sets,
//! - [`determinize`] / [`minimize`] / boolean [`product`]s / [`Dfa`]
//!   complement for set algebra,
//! - [`equivalent`] / [`included`] (Hopcroft–Karp style) for the final
//!   compliance check,
//! - [`Fst`] transducers with [`compose`] and [`image`] (`P ⊲ R`) for
//!   regular relations, and [`meets`] to ask whether an image is empty
//!   before building it,
//! - [`shortest_word`] / [`enumerate_words`] for counterexample paths.
//!
//! Transition labels are *sets* of interned [`Symbol`]s ([`SymSet`]), so
//! the alphabet (all network locations) never needs to be enumerated; see
//! the `symset` module for the finite/co-finite Boolean algebra.
//!
//! ## Example: deciding a "preserve" spec
//!
//! ```
//! use rela_automata::*;
//!
//! let mut table = SymbolTable::new();
//! let a1 = table.intern("A1");
//! let b1 = table.intern("B1");
//!
//! // Pre-change network carries one path A1 B1; post-change the same.
//! let pre = Nfa::word(&[a1, b1]);
//! let post = Nfa::word(&[a1, b1]);
//!
//! // Spec: ".* : preserve" compiles to I(.*) on both sides.
//! let zone = Regex::any_star().to_nfa();
//! let relation = Fst::identity(&zone);
//!
//! let lhs = determinize(&image(&pre, &relation));
//! let rhs = determinize(&image(&post, &relation));
//! assert!(equivalent(&lhs, &rhs).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compose;
mod determinize;
mod dfa;
mod equiv;
mod fst;
mod hash;
mod minimize;
mod nfa;
mod regex;
mod symbol;
mod symset;
mod witness;

pub use compose::{compose, image, meets, preimage};
pub use determinize::determinize;
pub use dfa::{product, Dfa, ProductMode};
pub use equiv::{compare, equivalent, included, CheckResult, DiffWitness};
pub use fst::{Fst, FstLabel};
pub use hash::{FixedHasher, FixedMap, FixedSet, FixedState};
pub use minimize::minimize;
pub use nfa::{Nfa, StateId};
pub use regex::Regex;
pub use symbol::{Symbol, SymbolTable};
pub use symset::{minterms, SymSet};
pub use witness::{concretize, enumerate_words, shortest_word, shortest_word_nfa};
