//! Forwarding DAG → finite-state automaton, at a chosen granularity
//! (paper §6.1, "PreState and PostState symbols").
//!
//! - **Device level**: one FSA state per DAG vertex; an arc labelled with
//!   the downstream device per (deduplicated) edge; an initial state with
//!   an arc labelled with each source device.
//! - **Group level**: like device level, but arcs are labelled with the
//!   downstream *group*, and edges within one group become ε-arcs. This
//!   "stutter elimination" yields exactly the contracted group-level path
//!   language. (The paper merges same-entity vertices instead; merging
//!   can create spurious paths when a path re-enters a group, so we keep
//!   the DAG structure — see DESIGN.md §5.)
//! - **Interface level**: each edge contributes two symbols — the egress
//!   interface of the upstream device, then the ingress interface of the
//!   downstream device — via an intermediate state.
//!
//! Dropped traffic: each drop vertex gets an arc labelled with the
//! reserved `drop` location to a fresh accepting state, at every
//! granularity.

use crate::db::LocationDb;
use crate::graph::ForwardingGraph;
use crate::location::{Device, Granularity, DROP_LOCATION};
use rela_automata::{Nfa, SymSet, SymbolTable};
use std::collections::BTreeSet;

/// The group of `device`, falling back to the device's own name when the
/// database does not know it (e.g. pseudo-devices at the network edge).
fn group_or_self<'a>(db: &'a LocationDb, device: &'a str) -> &'a str {
    db.group_of(device).unwrap_or(device)
}

/// Build the FSA accepting exactly the paths of `graph` at `granularity`.
///
/// Location names are interned into `table`; reuse one table across all
/// automata that will be combined.
///
/// # Examples
///
/// ```
/// use rela_net::{graph_to_fsa, linear_graph, Granularity, LocationDb, Device};
/// use rela_automata::SymbolTable;
///
/// let mut db = LocationDb::new();
/// db.add_device(Device::new("A1-r01", "A1"));
/// db.add_device(Device::new("D1-r01", "D1"));
///
/// let g = linear_graph(&["A1-r01", "D1-r01"]);
/// let mut table = SymbolTable::new();
/// let fsa = graph_to_fsa(&g, &db, Granularity::Group, &mut table);
/// let a1 = table.lookup("A1").unwrap();
/// let d1 = table.lookup("D1").unwrap();
/// assert!(fsa.accepts(&[a1, d1]));
/// ```
pub fn graph_to_fsa(
    graph: &ForwardingGraph,
    db: &LocationDb,
    granularity: Granularity,
    table: &mut SymbolTable,
) -> Nfa {
    build_fsa(graph, db, granularity, &mut |name| Some(table.intern(name)))
        .expect("interning never misses")
}

/// Like [`graph_to_fsa`], but against a *read-only* symbol table: the
/// hot-path variant — the checker interns a session's alphabet once and
/// shares that one table immutably across worker threads. `None` when
/// the graph mentions a location absent from `table`.
pub fn graph_to_fsa_prepared(
    graph: &ForwardingGraph,
    db: &LocationDb,
    granularity: Granularity,
    table: &SymbolTable,
) -> Option<Nfa> {
    build_fsa(graph, db, granularity, &mut |name| table.lookup(name))
}

fn build_fsa(
    graph: &ForwardingGraph,
    db: &LocationDb,
    granularity: Granularity,
    sym: &mut dyn FnMut(&str) -> Option<rela_automata::Symbol>,
) -> Option<Nfa> {
    let mut nfa = Nfa::new();
    let vstate: Vec<_> = graph.vertices.iter().map(|_| nfa.add_state()).collect();

    match granularity {
        Granularity::Device => {
            for &s in &graph.sources {
                let label = sym(&graph.vertices[s])?;
                nfa.add_arc(nfa.start(), SymSet::singleton(label), vstate[s]);
            }
            let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
            for e in &graph.edges {
                if !seen.insert((e.from, e.to)) {
                    continue; // parallel edges are identical at device level
                }
                let label = sym(&graph.vertices[e.to])?;
                nfa.add_arc(vstate[e.from], SymSet::singleton(label), vstate[e.to]);
            }
        }
        Granularity::Group => {
            for &s in &graph.sources {
                let label = sym(group_or_self(db, &graph.vertices[s]))?;
                nfa.add_arc(nfa.start(), SymSet::singleton(label), vstate[s]);
            }
            let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
            for e in &graph.edges {
                if !seen.insert((e.from, e.to)) {
                    continue;
                }
                let g_from = group_or_self(db, &graph.vertices[e.from]);
                let g_to = group_or_self(db, &graph.vertices[e.to]);
                if g_from == g_to {
                    // stutter: same group, no new path symbol
                    nfa.add_eps(vstate[e.from], vstate[e.to]);
                } else {
                    let label = sym(g_to)?;
                    nfa.add_arc(vstate[e.from], SymSet::singleton(label), vstate[e.to]);
                }
            }
        }
        Granularity::Interface => {
            for &s in &graph.sources {
                nfa.add_eps(nfa.start(), vstate[s]);
            }
            for e in &graph.edges {
                let out_if = sym(&Device::interface_name(
                    &graph.vertices[e.from],
                    &e.src_port,
                ))?;
                let in_if = sym(&Device::interface_name(&graph.vertices[e.to], &e.dst_port))?;
                let mid = nfa.add_state();
                nfa.add_arc(vstate[e.from], SymSet::singleton(out_if), mid);
                nfa.add_arc(mid, SymSet::singleton(in_if), vstate[e.to]);
            }
        }
    }

    for &s in &graph.sinks {
        nfa.set_accepting(vstate[s], true);
    }
    if !graph.drops.is_empty() {
        let drop_sym = sym(DROP_LOCATION)?;
        let drop_state = nfa.add_state();
        nfa.set_accepting(drop_state, true);
        for &d in &graph.drops {
            nfa.add_arc(vstate[d], SymSet::singleton(drop_sym), drop_state);
        }
    }
    Some(nfa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::linear_graph;
    use rela_automata::Symbol;

    fn sample_db() -> LocationDb {
        let mut db = LocationDb::new();
        for (name, group) in [
            ("A1-r01", "A1"),
            ("A1-r02", "A1"),
            ("B1-r01", "B1"),
            ("D1-r01", "D1"),
        ] {
            db.add_device(Device::new(name, group));
        }
        db
    }

    fn syms(table: &SymbolTable, names: &[&str]) -> Vec<Symbol> {
        names
            .iter()
            .map(|n| table.lookup(n).unwrap_or_else(|| panic!("missing {n}")))
            .collect()
    }

    #[test]
    fn prepared_variant_matches_interning_variant() {
        let db = sample_db();
        let mut g = linear_graph(&["A1-r01", "A1-r02", "B1-r01"]);
        g.drops.push(2);
        g.sinks.clear();
        let probes: [(Granularity, Vec<&str>); 3] = [
            (
                Granularity::Device,
                vec!["A1-r01", "A1-r02", "B1-r01", DROP_LOCATION],
            ),
            (Granularity::Group, vec!["A1", "B1", DROP_LOCATION]),
            (
                Granularity::Interface,
                vec![
                    "A1-r01:eth0",
                    "A1-r02:eth1",
                    "A1-r02:eth0",
                    "B1-r01:eth1",
                    DROP_LOCATION,
                ],
            ),
        ];
        for (granularity, probe) in probes {
            let mut table = SymbolTable::new();
            let interned = graph_to_fsa(&g, &db, granularity, &mut table);
            let prepared = graph_to_fsa_prepared(&g, &db, granularity, &table).unwrap();
            let word = syms(&table, &probe);
            assert!(interned.accepts(&word), "{granularity:?}");
            assert!(prepared.accepts(&word), "{granularity:?}");
            assert_eq!(interned.len(), prepared.len());
        }
    }

    #[test]
    fn prepared_variant_rejects_unknown_locations() {
        let db = sample_db();
        let g = linear_graph(&["A1-r01", "B1-r01"]);
        let table = SymbolTable::new();
        assert!(graph_to_fsa_prepared(&g, &db, Granularity::Device, &table).is_none());
    }

    #[test]
    fn device_level_linear() {
        let db = sample_db();
        let g = linear_graph(&["A1-r01", "B1-r01", "D1-r01"]);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Device, &mut table);
        let w = syms(&table, &["A1-r01", "B1-r01", "D1-r01"]);
        assert!(fsa.accepts(&w));
        assert!(!fsa.accepts(&w[..2]));
    }

    #[test]
    fn group_level_contracts_stutters() {
        let db = sample_db();
        // A1-r01 → A1-r02 → D1-r01: two A1 hops contract to one
        let g = linear_graph(&["A1-r01", "A1-r02", "D1-r01"]);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Group, &mut table);
        let w = syms(&table, &["A1", "D1"]);
        assert!(fsa.accepts(&w));
        let a1 = table.lookup("A1").unwrap();
        let d1 = table.lookup("D1").unwrap();
        assert!(!fsa.accepts(&[a1, a1, d1]), "stutter must be contracted");
    }

    #[test]
    fn group_level_no_spurious_paths_on_reentry() {
        // A1-r01 → B1-r01 → A1-r02 → D1-r01 re-enters group A1;
        // vertex merging would also admit A1 D1 — we must not.
        let db = sample_db();
        let g = linear_graph(&["A1-r01", "B1-r01", "A1-r02", "D1-r01"]);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Group, &mut table);
        let good = syms(&table, &["A1", "B1", "A1", "D1"]);
        assert!(fsa.accepts(&good));
        let bad = syms(&table, &["A1", "D1"]);
        assert!(!fsa.accepts(&bad), "vertex merging artifact");
    }

    #[test]
    fn interface_level_two_symbols_per_link() {
        let db = sample_db();
        let g = linear_graph(&["A1-r01", "D1-r01"]);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Interface, &mut table);
        let w = syms(&table, &["A1-r01:eth0", "D1-r01:eth1"]);
        assert!(fsa.accepts(&w));
        assert!(!fsa.accepts(&w[..1]));
    }

    #[test]
    fn interface_level_parallel_links_are_distinct() {
        let db = sample_db();
        let mut g = ForwardingGraph::new();
        let s = g.add_vertex("A1-r01");
        let t = g.add_vertex("D1-r01");
        g.add_edge(s, t, "e0", "e0");
        g.add_edge(s, t, "e1", "e1");
        g.sources.push(s);
        g.sinks.push(t);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Interface, &mut table);
        assert!(fsa.accepts(&syms(&table, &["A1-r01:e0", "D1-r01:e0"])));
        assert!(fsa.accepts(&syms(&table, &["A1-r01:e1", "D1-r01:e1"])));
        // cross pairing is not a real link
        assert!(!fsa.accepts(&syms(&table, &["A1-r01:e0", "D1-r01:e1"])));
    }

    #[test]
    fn drop_paths_end_with_drop_symbol() {
        let db = sample_db();
        let mut g = ForwardingGraph::new();
        let s = g.add_vertex("A1-r01");
        let f = g.add_vertex("B1-r01");
        g.add_edge(s, f, "e0", "e0");
        g.sources.push(s);
        g.drops.push(f);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Device, &mut table);
        let w = syms(&table, &["A1-r01", "B1-r01", DROP_LOCATION]);
        assert!(fsa.accepts(&w));
        assert!(
            !fsa.accepts(&w[..2]),
            "dropped path must not count as delivery"
        );
    }

    #[test]
    fn ecmp_diamond_accepts_both_branches() {
        let db = sample_db();
        let mut g = ForwardingGraph::new();
        let s = g.add_vertex("A1-r01");
        let m1 = g.add_vertex("A1-r02");
        let m2 = g.add_vertex("B1-r01");
        let t = g.add_vertex("D1-r01");
        g.add_edge(s, m1, "e0", "e0");
        g.add_edge(s, m2, "e1", "e0");
        g.add_edge(m1, t, "e1", "e0");
        g.add_edge(m2, t, "e1", "e1");
        g.sources.push(s);
        g.sinks.push(t);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Device, &mut table);
        assert!(fsa.accepts(&syms(&table, &["A1-r01", "A1-r02", "D1-r01"])));
        assert!(fsa.accepts(&syms(&table, &["A1-r01", "B1-r01", "D1-r01"])));
        assert!(!fsa.accepts(&syms(&table, &["A1-r01", "D1-r01"])));
        // group level: the A1-internal hop contracts
        let fsa_g = graph_to_fsa(&g, &db, Granularity::Group, &mut table);
        assert!(fsa_g.accepts(&syms(&table, &["A1", "D1"])));
        assert!(fsa_g.accepts(&syms(&table, &["A1", "B1", "D1"])));
    }

    #[test]
    fn unknown_device_uses_own_name_as_group() {
        let db = sample_db();
        let g = linear_graph(&["x-edge", "A1-r01"]);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Group, &mut table);
        assert!(fsa.accepts(&syms(&table, &["x-edge", "A1"])));
    }

    #[test]
    fn empty_graph_gives_empty_language() {
        let db = sample_db();
        let g = ForwardingGraph::new();
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Device, &mut table);
        assert!(fsa.language_is_empty());
    }

    #[test]
    fn fsa_language_matches_device_paths_enumeration() {
        let db = sample_db();
        let mut g = ForwardingGraph::new();
        let s = g.add_vertex("A1-r01");
        let m1 = g.add_vertex("A1-r02");
        let t = g.add_vertex("D1-r01");
        let f = g.add_vertex("B1-r01");
        g.add_edge(s, m1, "e0", "e0");
        g.add_edge(m1, t, "e1", "e0");
        g.add_edge(s, f, "e2", "e0");
        g.sources.push(s);
        g.sinks.push(t);
        g.drops.push(f);
        let mut table = SymbolTable::new();
        let fsa = graph_to_fsa(&g, &db, Granularity::Device, &mut table);
        for path in g.device_paths(100) {
            let w: Vec<_> = path.iter().map(|n| table.lookup(n).unwrap()).collect();
            assert!(fsa.accepts(&w), "path {path:?} not accepted");
        }
    }
}
