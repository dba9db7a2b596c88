//! Interned alphabet symbols.
//!
//! Every network location (interface, device, or router group), plus the
//! special `drop` location and the `#` markers introduced by the `any`
//! modifier (paper §5.3), is interned into a compact [`Symbol`] so that
//! automata transitions can be compared and hashed cheaply.
//!
//! The alphabet is *open*: symbol sets may be co-finite ("every symbol
//! except these"), so the algebra never needs to know the full universe.
//! See [`crate::symset::SymSet`].

use crate::hash::FixedMap;
use std::fmt;

/// A compact, interned alphabet symbol.
///
/// Symbols are created by a [`SymbolTable`] and are only meaningful
/// relative to the table that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Raw index of this symbol in its table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a symbol from a raw index.
    ///
    /// Only use indices obtained from [`Symbol::index`] against the same
    /// table, or indices less than the table's [`SymbolTable::len`].
    #[inline]
    pub fn from_index(ix: usize) -> Symbol {
        Symbol(ix as u32)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Bidirectional map between symbol names and [`Symbol`] values.
///
/// # Examples
///
/// ```
/// use rela_automata::SymbolTable;
///
/// let mut table = SymbolTable::new();
/// let a = table.intern("A1");
/// let b = table.intern("B1");
/// assert_ne!(a, b);
/// assert_eq!(table.intern("A1"), a);
/// assert_eq!(table.name(a), "A1");
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    index: FixedMap<String, Symbol>,
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Intern `name`, returning its symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.index.get(name) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), sym);
        sym
    }

    /// Look up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).copied()
    }

    /// The name of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this table.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no symbols have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all symbols in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len() as u32).map(Symbol)
    }

    /// Find any symbol in this table that is *not* in `excluded`
    /// (which must be sorted). Used to concretize a co-finite transition
    /// when printing counterexample paths.
    pub fn any_except(&self, excluded: &[Symbol]) -> Option<Symbol> {
        self.iter().find(|s| excluded.binary_search(s).is_err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("x");
        let b = t.intern("x");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        assert_eq!(t.lookup("alpha"), Some(a));
        assert_eq!(t.lookup("beta"), None);
        assert_eq!(t.name(a), "alpha");
    }

    #[test]
    fn iter_order_matches_interning_order() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let c = t.intern("c");
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, vec![a, b, c]);
    }

    #[test]
    fn any_except_skips_excluded() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.any_except(&[a]), Some(b));
        assert_eq!(t.any_except(&[a, b]), None);
        assert_eq!(t.any_except(&[]), Some(a));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Symbol(7).to_string(), "s7");
    }
}
