//! # rela-core
//!
//! The Rela relational specification language and checker — the primary
//! contribution of *Relational Network Verification* (SIGCOMM 2024).
//!
//! Pipeline (paper §4–§6):
//!
//! 1. [`parse_program`] — the surface language: path patterns with
//!    `where` queries, modifiers (`preserve`, `add`, `remove`, `replace`,
//!    `drop`, `any`), spec concatenation and `else`, plus `pspec` routing
//!    and a raw-RIR escape hatch.
//! 2. [`compile_program`] — name resolution against a
//!    [`rela_net::LocationDb`] at a chosen granularity, then the Fig. 4
//!    translation to the regular intermediate representation ([`rir`]).
//! 3. [`CheckSession::run`] — binds each FEC's pre/post forwarding DAGs
//!    to `PreState`/`PostState`, decides the equations with automata
//!    ([`lower`]), and reports attributed counterexamples
//!    ([`report::CheckReport`], rendered like the paper's Table 1).
//!
//! A session ([`session`]) is the one way into the checker: the engine
//! behind it is crate-private, so it cannot be named from outside.
//!
//! ```compile_fail
//! use rela_core::check::Checker;
//! ```
//!
//! The executable reference semantics of the RIR (paper Appendix A)
//! lives in [`semantics`] and cross-checks the automata path in tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod check;
pub mod compile;
pub mod counterexample;
pub mod lexer;
pub mod lower;
pub mod parser;
mod pipeline;
pub mod pspec;
pub mod report;
mod retain;
pub mod rir;
pub mod semantics;
pub mod session;

pub use ast::{Def, Modifier, PathRegex, PredExpr, Program, RirExpr, RirSpecExpr, SpecExpr};
pub use check::{cache_epoch, ENGINE_VERSION};
pub use compile::{
    compile_program, CompileError, CompiledCheck, CompiledProgram, GuardedPart, RoutedCheck,
};
pub use counterexample::{EquationDiff, PathRenderer, WitnessLimits};
pub use lower::{decide_spec, lower_pathset, lower_pathset_dfa, lower_rel, PairFsas};
pub use parser::{parse_program, ParseError};
pub use report::{
    CheckReport, CheckStats, FecResult, PartViolation, PhaseTimings, ViolationDetail,
};
pub use rir::{PathSet, Rel, RirSpec};
pub use session::{
    CheckSession, IngestMode, JobError, JobInput, JobOptions, JobSpec, LabeledSource, SessionConfig,
};

/// Any failure on the parse → compile → check path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelaError {
    /// The source text did not parse.
    Parse(ParseError),
    /// The program did not compile against the location database.
    Compile(CompileError),
}

impl std::fmt::Display for RelaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelaError::Parse(e) => write!(f, "parse error: {e}"),
            RelaError::Compile(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl std::error::Error for RelaError {}

impl From<ParseError> for RelaError {
    fn from(e: ParseError) -> RelaError {
        RelaError::Parse(e)
    }
}

impl From<CompileError> for RelaError {
    fn from(e: CompileError) -> RelaError {
        RelaError::Compile(e)
    }
}
