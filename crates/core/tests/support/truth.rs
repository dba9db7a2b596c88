//! An end-to-end truth oracle for `CheckSession::run`, and the seeded
//! tiny instances it judges.
//!
//! For each flow of a snapshot pair, the oracle
//! - enumerates each side's paths by a plain walk of its forwarding DAG
//!   at the program's granularity, not through `graph_to_fsa`;
//! - picks the flow's route with `PredExpr::matches` (the first matching
//!   `pspec`, else the `check` directive);
//! - takes each part's verdict from [`eval_spec`] of `part.equation()`;
//!   a raw check's from `eval_spec(spec)`; and a path limit's from its
//!   own count of the post-change graph's link-level walks.
//!
//! Its answer ([`Verdicts`]) is the flagged flows, each with its route,
//! check name and violated parts: exactly what a report's violation rows
//! must say ([`reported`]).

use super::semantics::{eval_spec, EvalCtx, Paths};
use proptest::TestRng;
use rela_automata::SymbolTable;
use rela_core::{compile_program, parse_program, CheckReport, CompiledCheck, RirSpec};
use rela_net::{
    Device, Edge, FlowSpec, ForwardingGraph, Granularity, LocationDb, Snapshot, DROP_LOCATION,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a report must say about one flagged flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// The pspec that routed the flow, if any.
    pub(crate) route: Option<String>,
    /// The check the flow was held to.
    pub(crate) check: String,
    /// The violated parts, sorted.
    pub(crate) violated: Vec<String>,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let route = self.route.as_deref().unwrap_or("-");
        write!(
            f,
            "route {route}, check {}, violated [{}]",
            self.check,
            self.violated.join(", ")
        )
    }
}

/// The flagged flows and what each must be reported with.
pub(crate) type Verdicts = BTreeMap<FlowSpec, Verdict>;

/// The oracle's verdicts on a pair: `spec` compiled against `db` at
/// `granularity`, every flow of either side judged.
pub(crate) fn truth(
    spec: &str,
    db: &LocationDb,
    granularity: Granularity,
    pre: &Snapshot,
    post: &Snapshot,
) -> Verdicts {
    let program = parse_program(spec).expect("the spec parses");
    let program = compile_program(&program, db, granularity).expect("the spec compiles");
    let equations = |check: &CompiledCheck| -> Vec<(String, RirSpec)> {
        match check {
            CompiledCheck::Relational { parts, .. } => parts
                .iter()
                .map(|part| (part.name.clone(), part.equation()))
                .collect(),
            CompiledCheck::Raw { name, spec } => vec![(name.clone(), spec.clone())],
            CompiledCheck::PathLimit { .. } => Vec::new(),
        }
    };
    let routes: Vec<_> = program
        .routed
        .iter()
        .map(|r| (Some(r.name.clone()), &r.pred, &r.check, equations(&r.check)))
        .collect();
    let default = (
        None,
        &program.default_check,
        equations(&program.default_check),
    );
    let mut table = program.table.clone();
    let empty = ForwardingGraph::new();
    let flows: BTreeSet<&FlowSpec> = pre.iter().chain(post.iter()).map(|(f, _)| f).collect();
    let mut out = Verdicts::new();
    for flow in flows {
        let pre_graph = pre.get(flow).unwrap_or(&empty);
        let post_graph = post.get(flow).unwrap_or(&empty);
        let (route, check, equations) = routes
            .iter()
            .find(|(_, pred, _, _)| pred.matches(flow))
            .map(|(name, _, check, eqs)| (name, *check, eqs))
            .unwrap_or((&default.0, default.1, &default.2));
        let mut violated: Vec<String> = match check {
            CompiledCheck::PathLimit { name, max } => {
                let count = walks(post_graph).len() as u128;
                if count > u128::from(*max) {
                    vec![name.clone()]
                } else {
                    Vec::new()
                }
            }
            _ => {
                let ctx = EvalCtx {
                    pre: paths(pre_graph, db, granularity, &mut table),
                    post: paths(post_graph, db, granularity, &mut table),
                };
                equations
                    .iter()
                    .filter(|(_, equation)| !eval_spec(equation, &ctx))
                    .map(|(name, _)| name.clone())
                    .collect()
            }
        };
        if !violated.is_empty() {
            violated.sort();
            out.insert(
                flow.clone(),
                Verdict {
                    route: route.clone(),
                    check: check.name().to_owned(),
                    violated,
                },
            );
        }
    }
    out
}

/// What a report says: its violation rows as [`Verdicts`].
pub(crate) fn reported(report: &CheckReport) -> Verdicts {
    report
        .violations
        .iter()
        .map(|row| {
            let mut violated: Vec<String> = row.violations.iter().map(|v| v.part.clone()).collect();
            violated.sort();
            let verdict = Verdict {
                route: row.route.clone(),
                check: row.check_name.clone(),
                violated,
            };
            (row.flow.clone(), verdict)
        })
        .collect()
}

/// `Ok` when the report says what the oracle says; otherwise one line per
/// flow on which they differ.
pub(crate) fn compare(truth: &Verdicts, report: &Verdicts) -> Result<(), String> {
    let flows: BTreeSet<&FlowSpec> = truth.keys().chain(report.keys()).collect();
    let lines: Vec<String> = flows
        .into_iter()
        .filter(|flow| truth.get(*flow) != report.get(*flow))
        .map(|flow| {
            let say = |v: Option<&Verdict>| v.map_or("compliant".to_owned(), Verdict::to_string);
            format!(
                "  {flow}: truth: {}; checker: {}",
                say(truth.get(flow)),
                say(report.get(flow))
            )
        })
        .collect();
    if lines.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "truth oracle disagrees on {} flow(s):\n{}",
            lines.len(),
            lines.join("\n")
        ))
    }
}

/// One complete walk of a forwarding DAG: where it starts, the links it
/// takes, and whether it ends delivered or dropped.
struct Walk<'g> {
    source: usize,
    links: Vec<&'g Edge>,
    dropped: bool,
}

/// Every complete walk from a source: one per sink it reaches and one
/// per drop vertex, parallel links counted apart.
fn walks(graph: &ForwardingGraph) -> Vec<Walk<'_>> {
    fn from<'g>(
        graph: &'g ForwardingGraph,
        source: usize,
        at: usize,
        links: &mut Vec<&'g Edge>,
        out: &mut Vec<Walk<'g>>,
    ) {
        for (ends, dropped) in [(&graph.sinks, false), (&graph.drops, true)] {
            if ends.contains(&at) {
                out.push(Walk {
                    source,
                    links: links.clone(),
                    dropped,
                });
            }
        }
        for edge in graph.edges.iter().filter(|e| e.from == at) {
            links.push(edge);
            from(graph, source, edge.to, links, out);
            links.pop();
        }
    }
    let mut out = Vec::new();
    for &source in &graph.sources {
        from(graph, source, source, &mut Vec::new(), &mut out);
    }
    out
}

/// A walk's location names at `granularity`: a device path names each
/// device; a group path names each group it enters (a link inside one
/// group adds nothing, and a device the database does not know is its own
/// group); an interface path names both ends of each link. A dropped walk
/// ends in `drop`.
fn locations(
    graph: &ForwardingGraph,
    walk: &Walk<'_>,
    db: &LocationDb,
    granularity: Granularity,
) -> Vec<String> {
    let device = |v: usize| graph.vertices[v].as_str();
    let group = |v: usize| db.group_of(device(v)).unwrap_or(device(v));
    let mut out: Vec<String> = Vec::new();
    match granularity {
        Granularity::Device => {
            out.push(device(walk.source).to_owned());
            out.extend(walk.links.iter().map(|e| device(e.to).to_owned()));
        }
        Granularity::Group => {
            out.push(group(walk.source).to_owned());
            for e in &walk.links {
                if group(e.from) != group(e.to) {
                    out.push(group(e.to).to_owned());
                }
            }
        }
        Granularity::Interface => {
            for e in &walk.links {
                out.push(Device::interface_name(device(e.from), &e.src_port));
                out.push(Device::interface_name(device(e.to), &e.dst_port));
            }
        }
    }
    if walk.dropped {
        out.push(DROP_LOCATION.to_owned());
    }
    out
}

/// A graph's path set at `granularity`, as words over `table`.
fn paths(
    graph: &ForwardingGraph,
    db: &LocationDb,
    granularity: Granularity,
    table: &mut SymbolTable,
) -> Paths {
    walks(graph)
        .iter()
        .map(|walk| {
            locations(graph, walk, db, granularity)
                .iter()
                .map(|name| table.intern(name))
                .collect()
        })
        .collect()
}

// ---- tiny instances ------------------------------------------------------

/// The spec shapes a tiny instance is drawn in: every modifier, spec
/// concatenation, `else` chains, `where` zones, pspec routes, raw RIR and
/// ECMP limits.
pub(crate) const SHAPES: [&str; 12] = [
    "preserve", "add", "remove", "replace", "drop", "any", "concat", "else", "where", "pspec",
    "raw", "limit",
];

/// The location pool: six devices in five groups (`A1` and `A2` share
/// one, so group paths stutter) and two regions, each with two ports.
const DEVICES: [(&str, &str, &str); 6] = [
    ("x1", "X", "west"),
    ("A1", "A", "west"),
    ("A2", "A", "west"),
    ("B1", "B", "east"),
    ("fw", "F", "east"),
    ("y1", "Y", "east"),
];
const PORTS: [&str; 2] = ["p0", "p1"];

/// One tiny, seeded instance: a spec of one shape over a snapshot pair
/// at one granularity.
pub(crate) struct Instance {
    /// `tiny-<shape>-<granularity>#<seed>`.
    pub(crate) name: String,
    /// One of [`SHAPES`].
    pub(crate) shape: &'static str,
    /// The seed it was drawn from.
    pub(crate) seed: u64,
    /// The granularity it is checked at.
    pub(crate) granularity: Granularity,
    /// The location database.
    pub(crate) db: LocationDb,
    /// The spec source.
    pub(crate) spec: String,
    /// The pre-change snapshot.
    pub(crate) pre: Snapshot,
    /// The post-change snapshot.
    pub(crate) post: Snapshot,
}

/// The tiny instances of one seed: every shape at every granularity.
pub(crate) fn tiny_instances(seed: u64) -> Vec<Instance> {
    let mut out = Vec::new();
    for shape in SHAPES {
        for granularity in [
            Granularity::Device,
            Granularity::Group,
            Granularity::Interface,
        ] {
            out.push(tiny_instance(shape, granularity, seed));
        }
    }
    out
}

/// The location database every tiny instance is checked against.
fn tiny_db() -> LocationDb {
    let mut db = LocationDb::new();
    for (name, group, region) in DEVICES {
        let mut device = Device::new(name, group).with_attr("region", region);
        device.interfaces = PORTS
            .iter()
            .map(|port| Device::interface_name(name, port))
            .collect();
        db.add_device(device);
    }
    db
}

/// One instance of `shape` at `granularity`, drawn from `seed`: one to
/// six flows, a quarter of them on one side only, half of them in the
/// `10.200.0.0/16` block a `pspec` routes, a quarter with a source
/// prefix, and half of all but the first twins of an earlier one.
pub(crate) fn tiny_instance(shape: &'static str, granularity: Granularity, seed: u64) -> Instance {
    let name = format!("tiny-{shape}-{granularity}#{seed}");
    let mut draw = Draw {
        rng: TestRng::for_test(&format!("rela-tiny/{shape}/{granularity}/{seed}")),
        granularity,
        walks: Vec::new(),
        ecmp: Vec::new(),
    };
    let db = tiny_db();
    let mut pre = Snapshot::new();
    let mut post = Snapshot::new();
    let mut drawn: Vec<(ForwardingGraph, ForwardingGraph)> = Vec::new();
    for i in 0..1 + draw.below(6) {
        let block = if draw.coin() { 200 } else { i + 1 };
        let mut flow = FlowSpec::new(
            format!("10.{block}.{i}.0/24").parse().expect("a prefix"),
            "x1",
        );
        if draw.below(4) == 0 {
            flow = flow.with_src(format!("192.168.{i}.0/24").parse().expect("a prefix"));
        }
        // half the later flows twin an earlier one, so flows share
        // behavior classes, some of them only above the interface level
        let (before, after) = if !drawn.is_empty() && draw.coin() {
            let ix = draw.below(drawn.len());
            let (earlier_pre, earlier_post) = &drawn[ix];
            (draw.twin(earlier_pre), draw.twin(earlier_post))
        } else {
            draw.fresh_pair()
        };
        draw.ecmp.push(walks(&after).len());
        drawn.push((before.clone(), after.clone()));
        for graph in [&before, &after] {
            for walk in walks(graph).iter().filter(|w| !w.links.is_empty()) {
                draw.walks.push(locations(graph, walk, &db, granularity));
            }
        }
        match draw.below(8) {
            0 => pre.insert(flow, before),
            1 => post.insert(flow, after),
            _ => {
                pre.insert(flow.clone(), before);
                post.insert(flow, after);
            }
        }
    }
    let spec = draw.spec(shape);
    Instance {
        name,
        shape,
        seed,
        granularity,
        db,
        spec,
        pre,
        post,
    }
}

/// The random source of one instance, and what it has drawn so far.
struct Draw {
    rng: TestRng,
    granularity: Granularity,
    /// The location names of every walk of the instance's graphs: the
    /// raw material of targets that real paths can meet.
    walks: Vec<Vec<String>>,
    /// Each post-change graph's link-level path count: the limits that
    /// put a flow right on the boundary.
    ecmp: Vec<usize>,
}

impl Draw {
    fn below(&mut self, bound: usize) -> usize {
        self.rng.below(bound as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    fn device(&mut self) -> &'static str {
        DEVICES[self.below(DEVICES.len())].0
    }

    fn port(&mut self) -> &'static str {
        PORTS[self.below(PORTS.len())]
    }

    /// A forwarding DAG over one to six distinct devices, most often
    /// entered at `x1`: a chain in draw order, with some links skipping
    /// ahead or doubled (ECMP), ending delivered, dropped or both — and
    /// now and then also delivered or dropped midway.
    fn graph(&mut self) -> ForwardingGraph {
        let mut order: Vec<&str> = DEVICES.iter().map(|d| d.0).collect();
        for i in (1..order.len()).rev() {
            let j = self.below(i + 1);
            order.swap(i, j);
        }
        if self.below(4) != 0 {
            let at = order.iter().position(|&d| d == "x1").expect("x1 is pooled");
            order[..=at].rotate_right(1);
        }
        order.truncate(1 + self.below(DEVICES.len()));
        let mut g = ForwardingGraph::new();
        for device in &order {
            g.add_vertex(*device);
        }
        let n = order.len();
        for from in 0..n {
            for to in from + 1..n {
                let links = if to == from + 1 {
                    1 + usize::from(self.below(4) == 0)
                } else {
                    usize::from(self.below(6) == 0)
                };
                for _ in 0..links {
                    let (src, dst) = (self.port(), self.port());
                    g.add_edge(from, to, src, dst);
                }
            }
        }
        g.sources.push(0);
        if n > 1 && self.below(8) == 0 {
            g.sources.push(1);
        }
        for v in 0..n {
            let roll = self.below(8);
            if v + 1 == n {
                if roll != 6 {
                    g.sinks.push(v);
                }
                if roll >= 6 {
                    g.drops.push(v);
                }
            } else if roll == 0 {
                g.sinks.push(v);
            } else if roll == 1 {
                g.drops.push(v);
            }
        }
        g
    }

    /// A flow's pre- and post-change graphs, drawn afresh.
    fn fresh_pair(&mut self) -> (ForwardingGraph, ForwardingGraph) {
        let before = self.graph();
        let after = self.post_of(&before);
        (before, after)
    }

    /// Another flow's graph: the same, the same paths through other
    /// ports or over one more ECMP member (the same behavior at device
    /// and group granularity), or a near miss that a behavior hash must
    /// tell apart.
    fn twin(&mut self, graph: &ForwardingGraph) -> ForwardingGraph {
        let mut g = graph.clone();
        if g.edges.is_empty() {
            return g;
        }
        let ix = self.below(g.edges.len());
        match self.below(5) {
            0 => {}
            1 => g.edges[ix].dst_port = self.port().to_owned(),
            2 => {
                let mut member = g.edges[ix].clone();
                member.src_port = self.port().to_owned();
                g.edges.push(member);
            }
            // one vertex gains or loses its drop mark, nothing else moves
            3 => {
                let v = self.below(g.vertices.len());
                match g.drops.iter().position(|&d| d == v) {
                    Some(at) => drop(g.drops.remove(at)),
                    None => g.drops.push(v),
                }
            }
            _ => g = self.post_of(&g),
        }
        g
    }

    /// The post-change graph of a flow: unchanged, changed a little
    /// (one link gone, one more ECMP member, a delivery turned into a
    /// drop, a device swapped), emptied, or redrawn.
    fn post_of(&mut self, pre: &ForwardingGraph) -> ForwardingGraph {
        let mut g = pre.clone();
        match self.below(8) {
            0 | 1 => {}
            2 if !g.edges.is_empty() => {
                let ix = self.below(g.edges.len());
                g.edges.remove(ix);
            }
            3 if !g.edges.is_empty() => {
                let mut twin = g.edges[self.below(g.edges.len())].clone();
                twin.src_port = self.port().to_owned();
                g.edges.push(twin);
            }
            4 if !g.sinks.is_empty() => {
                let sink = g.sinks.remove(self.below(g.sinks.len()));
                g.drops.push(sink);
            }
            5 => {
                let device = self.device();
                if g.vertex_by_name(device).is_none() {
                    let ix = self.below(g.vertices.len());
                    g.vertices[ix] = device.to_owned();
                }
            }
            6 => g = ForwardingGraph::new(),
            _ => g = self.graph(),
        }
        g
    }

    /// A location as a pattern at the instance's granularity: a device
    /// name, its group's name, or — interface names do not lex — a
    /// `where` query for the device's interfaces.
    fn loc(&self, device: &str) -> String {
        let group = DEVICES
            .iter()
            .find(|d| d.0 == device)
            .map_or(device, |d| d.1);
        match self.granularity {
            Granularity::Device => device.to_owned(),
            Granularity::Group => group.to_owned(),
            Granularity::Interface => format!("where(name == \"{device}\")"),
        }
    }

    /// A zone: any pattern, infinite or not.
    fn zone(&mut self) -> String {
        let (a, b) = (self.device(), self.device());
        let (la, lb, x1) = (self.loc(a), self.loc(b), self.loc("x1"));
        match self.below(11) {
            0 => ".*".to_owned(),
            1 => format!("{x1} .*"),
            2 => format!(".* {lb}"),
            3 => format!("{x1} .* {lb}"),
            4 => format!("({la} | {lb}) .*"),
            5 => "where(region == \"west\")*".to_owned(),
            6 => "where(region == \"west\") .*".to_owned(),
            7 => format!(".* {la} .*"),
            8 => ".* drop".to_owned(),
            9 => format!("{x1} {la}? .*"),
            _ => self.target(),
        }
    }

    /// A finite, star-free pattern: a real walk's locations, or a few
    /// locations with alternatives, options and a trailing `drop`.
    fn target(&mut self) -> String {
        if !self.walks.is_empty() && self.coin() {
            let ix = self.below(self.walks.len());
            let walk = self.walks[ix].clone();
            let hops: Vec<String> = walk
                .iter()
                .map(|name| match name.split_once(':') {
                    Some((device, _)) => self.loc(device),
                    None => name.clone(),
                })
                .collect();
            return hops.join(" ");
        }
        let mut hops = Vec::new();
        for _ in 0..1 + self.below(4) {
            let (a, b) = (self.device(), self.device());
            hops.push(match self.below(4) {
                0 => format!("({} | {})", self.loc(a), self.loc(b)),
                1 => format!("{}?", self.loc(a)),
                _ => self.loc(a),
            });
        }
        if self.below(4) == 0 {
            hops.push("drop".to_owned());
        }
        hops.join(" ")
    }

    /// A modifier, with finite targets where they are written.
    fn modifier(&mut self) -> String {
        match self.below(6) {
            0 => "preserve".to_owned(),
            1 => format!("add({})", self.target()),
            2 => format!("remove({})", self.zone()),
            3 => format!("replace({}, {})", self.zone(), self.target()),
            4 => "drop".to_owned(),
            _ => format!("any({})", self.zone()),
        }
    }

    fn atomic(&mut self) -> String {
        let zone = self.zone();
        format!("{{ {zone} : {} }}", self.modifier())
    }

    /// A raw RIR assertion whose `==` sides and `<=` left sides are
    /// finite: one or two basic assertions under `&&`, `||` or `!`.
    fn raw(&mut self) -> String {
        let first = self.assertion();
        match self.below(5) {
            0 => first,
            1 => format!("{first} && {}", self.assertion()),
            2 | 3 => format!("{first} || {}", self.assertion()),
            _ => format!("!{first}"),
        }
    }

    fn assertion(&mut self) -> String {
        let (zone, target) = (self.zone(), self.target());
        match self.below(7) {
            0 => "pre <= post".to_owned(),
            1 => "post <= pre".to_owned(),
            2 => "pre == post".to_owned(),
            3 => format!("post <= (pre | {zone})"),
            4 => format!("(pre & ({zone})) == (post & ({zone}))"),
            5 => format!("post <= !({zone})"),
            _ => format!("(post & ({target})) == ({target})"),
        }
    }

    /// The spec source of `shape`.
    fn spec(&mut self, shape: &str) -> String {
        let one = |body: String| format!("spec s := {body}\ncheck s\n");
        match shape {
            "preserve" => {
                let zone = self.zone();
                one(format!("{{ {zone} : preserve }}"))
            }
            "add" => {
                let (zone, target) = (self.zone(), self.target());
                one(format!("{{ {zone} : add({target}) }}"))
            }
            "remove" => {
                let (zone, gone) = (self.zone(), self.zone());
                one(format!("{{ {zone} : remove({gone}) }}"))
            }
            "replace" => {
                let (zone, from, to) = (self.zone(), self.zone(), self.target());
                one(format!("{{ {zone} : replace({from}, {to}) }}"))
            }
            "drop" => {
                if self.coin() {
                    let x1 = self.loc("x1");
                    one(format!(
                        "{{ {x1} : preserve ; .* : drop }} else {{ .* : preserve }}"
                    ))
                } else {
                    let zone = self.zone();
                    one(format!("{{ {zone} : drop }}"))
                }
            }
            "any" => {
                let (zone, onto) = (self.zone(), self.zone());
                one(format!("{{ {zone} : any({onto}) }}"))
            }
            "concat" => {
                let x1 = self.loc("x1");
                let head = if self.coin() {
                    format!("{x1} : preserve")
                } else {
                    let zone = self.zone();
                    format!("{zone} : {}", self.modifier())
                };
                let zone = self.zone();
                one(format!("{{ {head} ; {zone} : {} }}", self.modifier()))
            }
            "else" => {
                let (a, b) = (self.atomic(), self.atomic());
                let last = self.pick(&["{ .* : preserve }", "{ .* : drop }", "b"]);
                format!("spec a := {a}\nspec b := {b}\nspec s := a else b else {last}\ncheck s\n")
            }
            "where" => {
                let region = self.pick(&["west", "east"]);
                let modifier = self.modifier();
                one(format!(
                    "{{ where(region == \"{region}\")* : preserve }} \
                     else {{ .* where(region == \"{region}\") .* : {modifier} }} \
                     else {{ .* : preserve }}"
                ))
            }
            "pspec" => {
                let (main, alt) = (self.atomic(), self.atomic());
                let second = match self.below(3) {
                    0 => "pspec q := ingress == \"x*\" && !(dstPrefix == 10.1.0.0/16) -> main\n",
                    1 => "pspec q := srcPrefix == 192.168.0.0/16 || dstPrefix == 10.3.0.0/16 -> alt\n",
                    _ => "",
                };
                format!(
                    "spec main := {main}\nspec alt := {alt}\n\
                     pspec p := dstPrefix == 10.200.0.0/16 -> alt\n{second}check main\n"
                )
            }
            "raw" => {
                let raw = self.raw();
                if self.below(4) != 0 {
                    format!("rir r := {raw}\ncheck r\n")
                } else {
                    let main = self.atomic();
                    format!(
                        "rir r := {raw}\nspec main := {main}\n\
                         pspec p := dstPrefix == 10.200.0.0/16 -> r\ncheck main\n"
                    )
                }
            }
            "limit" => {
                let ix = self.below(self.ecmp.len());
                let count = self.ecmp[ix];
                let max = count.saturating_sub(self.below(2));
                if self.coin() {
                    format!("limit ecmp := {max}\ncheck ecmp\n")
                } else {
                    format!(
                        "limit ecmp := {max}\nspec s := {{ .* : preserve }}\n\
                         pspec p := dstPrefix == 10.200.0.0/16 -> ecmp\ncheck s\n"
                    )
                }
            }
            other => panic!("no spec shape `{other}`"),
        }
    }
}
