//! Behavior-class identity for forwarding graphs.
//!
//! The paper's headline scaling result (§7, §8.2: ~10⁶ traffic classes
//! validated in minutes) rests on an observation this module makes
//! precise: vast numbers of FECs share *identical* forwarding behavior,
//! so a checker only needs to decide each distinct behavior once. A
//! [`BehaviorHash`] is a stable 128-bit content fingerprint of one
//! graph's forwarding behavior at a chosen granularity; FECs whose
//! `(pre, post)` fingerprints collide form a behavior class, and the
//! checker verifies one representative per class.
//!
//! Two guarantees make broadcasting a representative's verdict sound:
//!
//! 1. **Canonical ordering.** The fingerprint is computed over a
//!    canonical form of the graph — vertices sorted by device name,
//!    edges remapped and sorted, source/sink/drop marks sorted — so
//!    insertion order never splits (or merges) a class.
//! 2. **Granularity awareness, downward-closed.** At [`Granularity::Group`]
//!    only the group labels of vertices are hashed (devices that differ
//!    but sit in the same groups dedup together); at
//!    [`Granularity::Device`] device names are hashed and parallel edges
//!    collapse; at [`Granularity::Interface`] the full link structure
//!    including ports and edge multiplicity is hashed. Interface
//!    fidelity is the finest: equal interface hashes imply equal
//!    behavior at every granularity *and* equal link-level path counts,
//!    which is what ECMP `limit` checks decide on.
//!
//! Checkers that want byte-identical output for every member of a class
//! (not just language-equal verdicts) should decide the representative
//! on its [`canonical_graph`] — the canonical form of every member of a
//! class compiles to a structurally identical automaton.

use crate::db::LocationDb;
use crate::graph::{Edge, ForwardingGraph};
use crate::location::Granularity;

/// A stable 128-bit fingerprint of one graph's forwarding behavior at a
/// granularity. Equal hashes ⇒ identical behavior (up to the ~2⁻¹²⁸
/// collision probability of the underlying FNV-1a construction); the
/// hash is a pure function of graph *content*, independent of vertex or
/// edge insertion order, process, and platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BehaviorHash(u128);

impl BehaviorHash {
    /// The raw fingerprint value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Rebuild a hash from its raw value (the inverse of [`as_u128`];
    /// used when keys round-trip through persistent stores).
    ///
    /// [`as_u128`]: BehaviorHash::as_u128
    pub fn from_u128(raw: u128) -> BehaviorHash {
        BehaviorHash(raw)
    }
}

impl std::fmt::Display for BehaviorHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Error parsing a [`BehaviorHash`] from its 32-hex-digit rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHashError;

impl std::fmt::Display for ParseHashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("behavior hashes are exactly 32 lowercase hex digits")
    }
}

impl std::error::Error for ParseHashError {}

impl std::str::FromStr for BehaviorHash {
    type Err = ParseHashError;

    /// Parse the `Display` rendering back: exactly 32 hex digits.
    fn from_str(s: &str) -> Result<BehaviorHash, ParseHashError> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(ParseHashError);
        }
        u128::from_str_radix(s, 16)
            .map(BehaviorHash)
            .map_err(|_| ParseHashError)
    }
}

/// Fingerprint arbitrary bytes: MurmurHash3 x64_128 (Appleby, public
/// domain) with seed 0, reproduced exactly — the 16 output bytes of the
/// reference implementation read as one little-endian integer, which is
/// the value other ports publish as `hash128`. It is the workspace's one
/// content-hash primitive: graph-span byte keys, snapshot and cache
/// epochs, store file names.
///
/// Stability promise: a pure function of the bytes — explicit
/// little-endian loads, no pointer casts, no per-process seed — so the
/// value is the same in every process and on every platform, and stores
/// stay comparable. Everything keyed by it (byte-keyed store entries,
/// cache epochs, snapshot epochs) is only comparable between builds that
/// share it: changing this function bumps `rela_core::ENGINE_VERSION`.
///
/// It is not keyed and not collision-resistant against an adversary;
/// like the FNV-1a it replaced, it guards against accident, not attack.
pub fn content_hash128(bytes: &[u8]) -> u128 {
    murmur3_x64_128(bytes, 0)
}

/// MurmurHash3 x64_128: 16 bytes a step, each half of the block
/// multiplied, rotated and multiplied into its own 64-bit lane, the
/// lanes cross-added after every block, the length folded in before two
/// `fmix64` avalanches. `seed` exists so the tests can run the
/// reference implementation's published verification (SMHasher seeds
/// every key); production hashes with seed 0.
fn murmur3_x64_128(bytes: &[u8], seed: u32) -> u128 {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;
    let mix_k1 = |k: u64| k.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
    let mix_k2 = |k: u64| k.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
    let halves = |block: &[u8; 16]| {
        let (lo, hi) = block.split_at(8);
        (
            u64::from_le_bytes(lo.try_into().expect("8 of 16 bytes")),
            u64::from_le_bytes(hi.try_into().expect("8 of 16 bytes")),
        )
    };

    let (mut h1, mut h2) = (u64::from(seed), u64::from(seed));
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let (k1, k2) = halves(block.try_into().expect("chunks_exact(16)"));
        h1 ^= mix_k1(k1);
        h1 = h1.rotate_left(27).wrapping_add(h2);
        h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);
        h2 ^= mix_k2(k2);
        h2 = h2.rotate_left(31).wrapping_add(h1);
        h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }
    // the tail, zero-padded: a lane the tail does not reach mixes to
    // zero, which is the reference's fall-through switch skipping it
    let tail = blocks.remainder();
    let mut padded = [0u8; 16];
    padded[..tail.len()].copy_from_slice(tail);
    let (k1, k2) = halves(&padded);
    h1 ^= mix_k1(k1);
    h2 ^= mix_k2(k2);

    // the length keeps zero padding unambiguous
    let len = bytes.len() as u64;
    h1 ^= len;
    h2 ^= len;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    u128::from(h2) << 64 | u128::from(h1)
}

/// MurmurHash3's 64-bit finalizer: every input bit flips every output
/// bit with probability ½.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// 128-bit FNV-1a, private to [`behavior_hash`]: its incremental
/// `text`/`num` feeds run only over the graphs that get decoded (one
/// pair per byte class), so byte-at-a-time is not on the ingest path.
/// Hand-rolled because the workspace builds without crates.io; 128 bits
/// keeps the birthday bound far beyond the 10⁶-FEC scale the checker
/// targets.
struct Fnv(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// A length-prefix-free string feed: terminate with a byte that
    /// cannot appear in UTF-8, so `("ab", "c")` ≠ `("a", "bc")`.
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn num(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }
}

/// Vertex indices in canonical order: sorted by device name, ties (only
/// possible in graphs that fail `validate`) broken by original index so
/// the order is still deterministic.
fn canonical_order(graph: &ForwardingGraph) -> (Vec<usize>, Vec<usize>) {
    let mut order: Vec<usize> = (0..graph.vertices.len()).collect();
    order.sort_by(|&a, &b| graph.vertices[a].cmp(&graph.vertices[b]).then(a.cmp(&b)));
    let mut rank = vec![0usize; order.len()];
    for (new, &old) in order.iter().enumerate() {
        rank[old] = new;
    }
    (order, rank)
}

/// The canonical form of a graph: same behavior, normalized layout.
/// Vertices are sorted by device name, edges are remapped and sorted by
/// `(from, to, src_port, dst_port)` (multiplicity preserved), and the
/// source/sink/drop marks are remapped and sorted. Idempotent, and
/// language-preserving at every granularity.
pub fn canonical_graph(graph: &ForwardingGraph) -> ForwardingGraph {
    let (order, rank) = canonical_order(graph);
    let vertices: Vec<String> = order.iter().map(|&o| graph.vertices[o].clone()).collect();
    let mut edges: Vec<Edge> = graph
        .edges
        .iter()
        .map(|e| Edge {
            from: rank[e.from],
            to: rank[e.to],
            src_port: e.src_port.clone(),
            dst_port: e.dst_port.clone(),
        })
        .collect();
    edges.sort_by(|a, b| {
        (a.from, a.to, &a.src_port, &a.dst_port).cmp(&(b.from, b.to, &b.src_port, &b.dst_port))
    });
    let remap = |marks: &[usize]| -> Vec<usize> {
        let mut v: Vec<usize> = marks.iter().map(|&m| rank[m]).collect();
        v.sort_unstable();
        v
    };
    ForwardingGraph {
        vertices,
        edges,
        sources: remap(&graph.sources),
        sinks: remap(&graph.sinks),
        drops: remap(&graph.drops),
    }
}

/// Fingerprint `graph`'s forwarding behavior at `level`.
///
/// Soundness contract: if two graphs hash equal at `level`, then their
/// [`canonical_graph`] forms compile (via `graph_to_fsa` at `level`, or
/// any coarser granularity for [`Granularity::Interface`] hashes) to
/// structurally identical automata, so a checker may decide one and
/// reuse the verdict for the other. At interface level, equal hashes
/// additionally imply equal link-level path counts.
///
/// # Examples
///
/// ```
/// use rela_net::{behavior_hash, linear_graph, Device, Granularity, LocationDb};
///
/// let mut db = LocationDb::new();
/// db.add_device(Device::new("a", "G"));
/// db.add_device(Device::new("b", "G"));
///
/// let g1 = linear_graph(&["a", "b"]);
/// let g2 = linear_graph(&["a", "b"]);
/// assert_eq!(
///     behavior_hash(&g1, &db, Granularity::Device),
///     behavior_hash(&g2, &db, Granularity::Device),
/// );
/// ```
pub fn behavior_hash(graph: &ForwardingGraph, db: &LocationDb, level: Granularity) -> BehaviorHash {
    let (order, rank) = canonical_order(graph);
    let mut h = Fnv::new();
    h.num(match level {
        Granularity::Device => 0,
        Granularity::Group => 1,
        Granularity::Interface => 2,
    });
    // vertices, canonically ordered, labelled at the hashing granularity
    h.num(graph.vertices.len());
    for &o in &order {
        let name = &graph.vertices[o];
        match level {
            Granularity::Group => h.text(db.group_of(name).unwrap_or(name)),
            Granularity::Device | Granularity::Interface => h.text(name),
        }
    }
    // edges: port-faithful with multiplicity at interface level; collapsed
    // to the (from, to) adjacency the FSA actually uses below that
    match level {
        Granularity::Interface => {
            let mut edges: Vec<(usize, usize, &str, &str)> = graph
                .edges
                .iter()
                .map(|e| (rank[e.from], rank[e.to], &*e.src_port, &*e.dst_port))
                .collect();
            edges.sort_unstable();
            h.num(edges.len());
            for (from, to, src_port, dst_port) in edges {
                h.num(from);
                h.num(to);
                h.text(src_port);
                h.text(dst_port);
            }
        }
        Granularity::Device | Granularity::Group => {
            let mut edges: Vec<(usize, usize)> = graph
                .edges
                .iter()
                .map(|e| (rank[e.from], rank[e.to]))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            h.num(edges.len());
            for (from, to) in edges {
                h.num(from);
                h.num(to);
            }
        }
    }
    // marks (sorted, multiplicity preserved — duplicate sources/sinks
    // count multiply in `path_count`)
    for marks in [&graph.sources, &graph.sinks, &graph.drops] {
        let mut v: Vec<usize> = marks.iter().map(|&m| rank[m]).collect();
        v.sort_unstable();
        h.num(v.len());
        for m in v {
            h.num(m);
        }
    }
    BehaviorHash(h.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::linear_graph;
    use crate::location::Device;

    fn db() -> LocationDb {
        let mut db = LocationDb::new();
        for (name, group) in [
            ("a1", "A"),
            ("a2", "A"),
            ("b1", "B"),
            ("c1", "C"),
            ("d1", "D"),
        ] {
            db.add_device(Device::new(name, group));
        }
        db
    }

    /// The same structure inserted in a different vertex order.
    fn permuted_pair() -> (ForwardingGraph, ForwardingGraph) {
        let g1 = linear_graph(&["a1", "b1", "c1"]);
        let mut g2 = ForwardingGraph::new();
        let c = g2.add_vertex("c1");
        let a = g2.add_vertex("a1");
        let b = g2.add_vertex("b1");
        g2.add_edge(a, b, "eth0", "eth1");
        g2.add_edge(b, c, "eth0", "eth1");
        g2.sources.push(a);
        g2.sinks.push(c);
        (g1, g2)
    }

    #[test]
    fn insertion_order_does_not_split_classes() {
        let db = db();
        let (g1, g2) = permuted_pair();
        for level in [
            Granularity::Device,
            Granularity::Group,
            Granularity::Interface,
        ] {
            assert_eq!(
                behavior_hash(&g1, &db, level),
                behavior_hash(&g2, &db, level),
                "{level:?}"
            );
        }
        assert_eq!(canonical_graph(&g1), canonical_graph(&g2));
    }

    #[test]
    fn canonical_graph_is_idempotent_and_behavior_preserving() {
        let (g1, _) = permuted_pair();
        let c = canonical_graph(&g1);
        assert_eq!(canonical_graph(&c), c);
        assert_eq!(c.path_count(), g1.path_count());
        let mut before = g1.device_paths(100);
        let mut after = c.device_paths(100);
        before.sort();
        after.sort();
        assert_eq!(before, after);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn different_paths_hash_differently() {
        let db = db();
        let g1 = linear_graph(&["a1", "b1", "c1"]);
        let g2 = linear_graph(&["a1", "d1", "c1"]);
        for level in [
            Granularity::Device,
            Granularity::Group,
            Granularity::Interface,
        ] {
            assert_ne!(
                behavior_hash(&g1, &db, level),
                behavior_hash(&g2, &db, level),
                "{level:?}"
            );
        }
    }

    #[test]
    fn group_level_merges_same_group_devices() {
        let db = db();
        // a1 and a2 share group A: group-equal, device-distinct
        let g1 = linear_graph(&["a1", "b1"]);
        let g2 = linear_graph(&["a2", "b1"]);
        assert_eq!(
            behavior_hash(&g1, &db, Granularity::Group),
            behavior_hash(&g2, &db, Granularity::Group)
        );
        assert_ne!(
            behavior_hash(&g1, &db, Granularity::Device),
            behavior_hash(&g2, &db, Granularity::Device)
        );
    }

    #[test]
    fn ports_only_matter_at_interface_level() {
        let db = db();
        let mut g1 = ForwardingGraph::new();
        let s = g1.add_vertex("a1");
        let t = g1.add_vertex("b1");
        g1.add_edge(s, t, "eth0", "eth0");
        g1.sources.push(s);
        g1.sinks.push(t);
        let mut g2 = g1.clone();
        g2.edges[0].src_port = "eth9".to_owned();
        assert_eq!(
            behavior_hash(&g1, &db, Granularity::Device),
            behavior_hash(&g2, &db, Granularity::Device)
        );
        assert_ne!(
            behavior_hash(&g1, &db, Granularity::Interface),
            behavior_hash(&g2, &db, Granularity::Interface)
        );
    }

    #[test]
    fn parallel_links_only_matter_at_interface_level() {
        let db = db();
        let mut g1 = ForwardingGraph::new();
        let s = g1.add_vertex("a1");
        let t = g1.add_vertex("b1");
        g1.add_edge(s, t, "e0", "e0");
        g1.sources.push(s);
        g1.sinks.push(t);
        let mut g2 = g1.clone();
        g2.add_edge(s, t, "e1", "e1");
        // device-level FSAs are identical (parallel edges collapse)...
        assert_eq!(
            behavior_hash(&g1, &db, Granularity::Device),
            behavior_hash(&g2, &db, Granularity::Device)
        );
        // ...but link-level path counts differ, which interface fidelity
        // (what ECMP limit checks hash at) must see
        assert_ne!(
            behavior_hash(&g1, &db, Granularity::Interface),
            behavior_hash(&g2, &db, Granularity::Interface)
        );
        assert_ne!(g1.path_count(), g2.path_count());
    }

    #[test]
    fn marks_are_part_of_the_behavior() {
        let db = db();
        let base = linear_graph(&["a1", "b1"]);
        let mut dropped = base.clone();
        dropped.sinks.clear();
        dropped.drops.push(1);
        assert_ne!(
            behavior_hash(&base, &db, Granularity::Device),
            behavior_hash(&dropped, &db, Granularity::Device)
        );
    }

    #[test]
    fn hash_display_roundtrips_through_from_str() {
        let db = db();
        let h = behavior_hash(&linear_graph(&["a1", "b1"]), &db, Granularity::Device);
        let parsed: BehaviorHash = h.to_string().parse().unwrap();
        assert_eq!(parsed, h);
        assert_eq!(BehaviorHash::from_u128(h.as_u128()), h);
        assert!("xyz".parse::<BehaviorHash>().is_err());
        assert!("00".parse::<BehaviorHash>().is_err());
        // 33 digits is as invalid as 2
        assert!(format!("{h}0").parse::<BehaviorHash>().is_err());
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        assert_eq!(content_hash128(b"spec"), content_hash128(b"spec"));
        assert_ne!(content_hash128(b"spec"), content_hash128(b"spec2"));
        assert_ne!(content_hash128(b""), content_hash128(b"\x00"));
    }

    #[test]
    fn content_hash_is_murmur3_x64_128_as_published() {
        // SMHasher's VerificationTest, the reference implementation's
        // own self-check: hash the keys {}, {0}, {0,1}, … {0..=254} with
        // seeds 256, 255, … 1, hash the 256 concatenated digests with
        // seed 0, and read the first four bytes little-endian. Every
        // tail length and the seeded lanes are in it.
        let key: Vec<u8> = (0..=255).collect();
        let mut digests = Vec::with_capacity(256 * 16);
        for len in 0..256usize {
            let digest = murmur3_x64_128(&key[..len], 256 - len as u32);
            digests.extend_from_slice(&digest.to_le_bytes());
        }
        let verification = murmur3_x64_128(&digests, 0) as u32;
        assert_eq!(verification, 0x6384_ba69, "{verification:#010x}");

        // seed-0 vectors other ports publish (Apache Commons Codec's
        // `hash128x64`, the Python `mmh3` README's `hash128`)
        assert_eq!(content_hash128(b""), 0);
        assert_eq!(
            content_hash128(b"The quick brown fox jumps over the lazy dog"),
            0x7a43_3ca9_c49a_9347_e34b_bc7b_bc07_1b6c
        );
        assert_eq!(
            content_hash128(b"foo"),
            168394135621993849475852668931176482145
        );
        assert_eq!(
            murmur3_x64_128(b"foo", 42),
            215966891540331383248189432718888555506
        );
    }

    /// `len` bytes of a fixed pattern with no period under 256.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn content_hash_known_answers_at_every_block_boundary() {
        // computed with an independent implementation of the reference
        // (which also reproduces the published vectors above): lengths
        // around the 8-byte lane, the 16-byte block, and a long run
        let known: [(usize, u128); 14] = [
            (0, 0x00000000000000000000000000000000),
            (1, 0x7a434b816c4508dc932fc7cce617f1e7),
            (7, 0xa08f38dfaa7ff6f98340cc686662983b),
            (8, 0xd02221832d7af9a1f0b144007f89ced7),
            (15, 0x49ca338fe7701fac2906f047b67f83ff),
            (16, 0x885aae87bb6c5ff7da9c66580c5ef0fb),
            (17, 0xe36790301698fce078b8ee9a775e07d1),
            (31, 0xcb6926489e7b3763b1ca061ed4c5532f),
            (32, 0x3a5200924dcdd6ffaf7374eb8efe799b),
            (33, 0x15c06fbdb5df8af908b88a88c3099ba9),
            (63, 0x75495cf694b2ed97281925e2603553ee),
            (64, 0x9a6c3536f9d78a8e497867a35161e107),
            (65, 0xbc3f54ea6f42cc4011fd61fdca4cfbe2),
            (1024, 0x5769eb3d25a6259a9d3bdab97cacfb46),
        ];
        for (len, expect) in known {
            let got = content_hash128(&pattern(len));
            assert_eq!(got, expect, "length {len}: {got:#034x}");
        }
    }

    #[test]
    fn content_hash_ignores_where_the_bytes_sit() {
        // spans are hashed in place in chunks and file mappings, at any
        // alignment
        for len in [0usize, 1, 15, 16, 17, 100, 1400] {
            let data = pattern(len);
            let expect = content_hash128(&data);
            for offset in 0..8 {
                let mut buf = vec![0xa5u8; offset];
                buf.extend_from_slice(&data);
                buf.push(0x5a);
                assert_eq!(
                    content_hash128(&buf[offset..offset + len]),
                    expect,
                    "length {len} at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn zero_runs_of_every_length_hash_apart() {
        // the tail is zero-padded to a block, so only the length in the
        // finalizer tells n zeros from n + 1
        let zeros = [0u8; 256];
        let mut seen = std::collections::HashMap::new();
        for len in 0..=256 {
            if let Some(other) = seen.insert(content_hash128(&zeros[..len]), len) {
                panic!("{other} and {len} zero bytes collide");
            }
        }
    }

    /// The graph span of one record, as the snapshot writer emits it.
    fn written_graph_span() -> Vec<u8> {
        use crate::snapshot::{SnapshotFramer, SnapshotWriter};
        let flow = crate::FlowSpec::new("10.1.0.0/24".parse().unwrap(), "a1");
        let mut writer = SnapshotWriter::new(Vec::new()).unwrap();
        writer
            .write(&flow, &linear_graph(&["a1", "b1", "c1"]))
            .unwrap();
        let doc = writer.finish().unwrap();
        let raw = SnapshotFramer::new(&doc[..], "doc")
            .next()
            .unwrap()
            .unwrap();
        raw.split_spans(None).unwrap().1.to_vec()
    }

    #[test]
    fn every_one_byte_edit_of_a_graph_span_moves_the_digest_and_avalanches() {
        let span = written_graph_span();
        assert!(span.len() > 128, "{} bytes", span.len());
        let original = content_hash128(&span);
        let mut edited = span.clone();
        let mut flipped = [0usize; 128];
        for at in 0..span.len() {
            for byte in 0..=255u8 {
                if byte != span[at] {
                    edited[at] = byte;
                    assert_ne!(content_hash128(&edited), original, "byte {at} := {byte}");
                }
            }
            for bit in 0..8 {
                edited[at] = span[at] ^ (1 << bit);
                let diff = content_hash128(&edited) ^ original;
                assert_ne!(diff, 0, "byte {at} bit {bit}");
                for (out, count) in flipped.iter_mut().enumerate() {
                    *count += (diff >> out & 1) as usize;
                }
            }
            edited[at] = span[at];
        }
        // both 64-bit halves see every input bit: each output bit moves
        // on about half of the single-bit flips
        let flips = (span.len() * 8) as f64;
        for (out, &count) in flipped.iter().enumerate() {
            let frequency = count as f64 / flips;
            assert!(
                (0.35..=0.65).contains(&frequency),
                "output bit {out} flips with frequency {frequency:.3}"
            );
        }
    }

    #[test]
    fn neither_half_collides_over_the_two_byte_inputs() {
        // a byte-index key that degenerated to one good half would
        // still pass every test above
        let mut low = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for input in 0..=u16::MAX {
            let digest = content_hash128(&input.to_le_bytes());
            assert!(low.insert(digest as u64), "low half collides at {input}");
            assert!(
                high.insert((digest >> 64) as u64),
                "high half collides at {input}"
            );
        }
    }

    #[test]
    fn hash_is_stable_across_calls() {
        let db = db();
        let g = linear_graph(&["a1", "b1", "c1"]);
        let h = behavior_hash(&g, &db, Granularity::Device);
        assert_eq!(h, behavior_hash(&g, &db, Granularity::Device));
        assert_eq!(
            h,
            behavior_hash(&canonical_graph(&g), &db, Granularity::Device)
        );
        // 32 hex chars, deterministic rendering
        assert_eq!(h.to_string().len(), 32);
    }
}
