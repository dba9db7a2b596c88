//! Counterexample extraction and rendering (paper §6.3).
//!
//! When `PreState ⊲ R_pre ≠ PostState ⊲ R_post`, the two difference
//! automata yield the *missing* paths (expected after the change but
//! absent) and the *unexpected* paths (present but not justified by the
//! spec). Witness paths are rendered with location names, and the `#`
//! markers introduced by `any` compilation are rewritten back to the
//! surface pattern they stand for, so reasons read like the paper's
//! Table 1.

use rela_automata::{
    enumerate_words, product, shortest_word, Dfa, ProductMode, SymSet, Symbol, SymbolTable,
};
use std::collections::BTreeMap;

/// How many witness paths to list per difference, and how long they may
/// grow during enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessLimits {
    /// Maximum number of paths listed per difference direction.
    pub max_paths: usize,
    /// Maximum path length explored.
    pub max_len: usize,
}

impl Default for WitnessLimits {
    fn default() -> WitnessLimits {
        WitnessLimits {
            max_paths: 4,
            max_len: 64,
        }
    }
}

/// The two sides of a failed equation, as rendered path lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquationDiff {
    /// Paths in `LHS \ RHS`: expected after the change but missing.
    pub missing: Vec<String>,
    /// Paths in `RHS \ LHS`: observed after the change but unexpected.
    pub unexpected: Vec<String>,
}

impl EquationDiff {
    /// True when the equation actually held.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.unexpected.is_empty()
    }
}

/// Compare two DFAs and render both difference directions.
pub fn diff_equation(
    lhs: &Dfa,
    rhs: &Dfa,
    renderer: &PathRenderer<'_>,
    limits: WitnessLimits,
) -> EquationDiff {
    EquationDiff {
        missing: diff_paths(lhs, rhs, renderer, limits),
        unexpected: diff_paths(rhs, lhs, renderer, limits),
    }
}

/// Render up to `limits.max_paths` paths of `L(lhs) \ L(rhs)`, shortest
/// first. `limits.max_len` bounds their length unless even the shortest
/// path of the difference is longer — then the bound is that length, so
/// a failed check is never reported without a reason.
pub(crate) fn diff_paths(
    lhs: &Dfa,
    rhs: &Dfa,
    renderer: &PathRenderer<'_>,
    limits: WitnessLimits,
) -> Vec<String> {
    let diff = product(lhs, rhs, ProductMode::Difference);
    let Some(shortest) = shortest_word(&diff) else {
        return Vec::new();
    };
    let max_len = limits.max_len.max(shortest.len());
    enumerate_words(&diff, limits.max_paths, max_len)
        .iter()
        .map(|w| renderer.render_witness(w))
        .collect()
}

/// Renders witness paths with location names and `#`-undo.
pub struct PathRenderer<'a> {
    table: &'a SymbolTable,
    hash_undo: &'a BTreeMap<Symbol, String>,
}

impl<'a> PathRenderer<'a> {
    /// Build a renderer over the compiled program's table and undo map.
    pub fn new(table: &'a SymbolTable, hash_undo: &'a BTreeMap<Symbol, String>) -> Self {
        PathRenderer { table, hash_undo }
    }

    /// Render one symbol, undoing `#` markers.
    pub fn render_symbol(&self, sym: Symbol) -> String {
        if let Some(original) = self.hash_undo.get(&sym) {
            format!("({original})")
        } else if sym.index() < self.table.len() {
            self.table.name(sym).to_owned()
        } else {
            sym.to_string()
        }
    }

    /// Render a concrete path.
    pub fn render_path(&self, path: &[Symbol]) -> String {
        if path.is_empty() {
            return "ε".to_owned();
        }
        path.iter()
            .map(|&s| self.render_symbol(s))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Render a witness (a sequence of symbol-set constraints): pick a
    /// concrete member per position; for co-finite constraints, fall back
    /// to a readable wildcard.
    pub fn render_witness(&self, witness: &[SymSet]) -> String {
        if witness.is_empty() {
            return "ε".to_owned();
        }
        witness
            .iter()
            .map(|set| match set {
                SymSet::Finite(_) => match set.some_finite_member() {
                    Some(sym) => self.render_symbol(sym),
                    None => "∅".to_owned(),
                },
                SymSet::CoFinite(excluded) => match self.table.any_except(excluded) {
                    Some(sym) if self.hash_undo.get(&sym).is_none() => self.render_symbol(sym),
                    _ => "<any-other>".to_owned(),
                },
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rela_automata::{determinize, Nfa, Regex};

    fn setup() -> (SymbolTable, BTreeMap<Symbol, String>) {
        let mut table = SymbolTable::new();
        table.intern("A1");
        table.intern("B1");
        let hash = table.intern("#1");
        let mut undo = BTreeMap::new();
        undo.insert(hash, "A1 A2 A3 D1".to_owned());
        (table, undo)
    }

    #[test]
    fn renders_paths_with_names() {
        let (table, undo) = setup();
        let renderer = PathRenderer::new(&table, &undo);
        let a1 = table.lookup("A1").unwrap();
        let b1 = table.lookup("B1").unwrap();
        assert_eq!(renderer.render_path(&[a1, b1]), "A1 B1");
        assert_eq!(renderer.render_path(&[]), "ε");
    }

    #[test]
    fn undoes_hash_markers() {
        let (table, undo) = setup();
        let renderer = PathRenderer::new(&table, &undo);
        let a1 = table.lookup("A1").unwrap();
        let hash = table.lookup("#1").unwrap();
        assert_eq!(renderer.render_path(&[a1, hash]), "A1 (A1 A2 A3 D1)");
    }

    #[test]
    fn diff_reports_both_directions() {
        let (table, undo) = setup();
        let renderer = PathRenderer::new(&table, &undo);
        let a1 = table.lookup("A1").unwrap();
        let b1 = table.lookup("B1").unwrap();
        let lhs = determinize(&Nfa::word(&[a1]));
        let rhs = determinize(&Nfa::word(&[b1]));
        let diff = diff_equation(&lhs, &rhs, &renderer, WitnessLimits::default());
        assert_eq!(diff.missing, vec!["A1"]);
        assert_eq!(diff.unexpected, vec!["B1"]);
        assert!(!diff.is_empty());
    }

    #[test]
    fn equal_automata_have_empty_diff() {
        let (table, undo) = setup();
        let renderer = PathRenderer::new(&table, &undo);
        let a1 = table.lookup("A1").unwrap();
        let d = determinize(&Nfa::word(&[a1]));
        let diff = diff_equation(&d, &d, &renderer, WitnessLimits::default());
        assert!(diff.is_empty());
    }

    #[test]
    fn witness_limits_bound_output() {
        let (table, undo) = setup();
        let renderer = PathRenderer::new(&table, &undo);
        let a1 = table.lookup("A1").unwrap();
        let many = determinize(&Regex::sym(a1).star().to_nfa());
        let none = determinize(&Regex::Empty.to_nfa());
        let limits = WitnessLimits {
            max_paths: 2,
            max_len: 10,
        };
        let diff = diff_equation(&many, &none, &renderer, limits);
        assert_eq!(diff.missing.len(), 2);
        assert_eq!(diff.missing[0], "ε");
        assert_eq!(diff.missing[1], "A1");
    }

    #[test]
    fn cofinite_witnesses_render_readably() {
        let (table, undo) = setup();
        let renderer = PathRenderer::new(&table, &undo);
        let a1 = table.lookup("A1").unwrap();
        let w = vec![SymSet::all_except(vec![a1])];
        let rendered = renderer.render_witness(&w);
        // B1 is available and not a hash marker
        assert_eq!(rendered, "B1");
    }
}
