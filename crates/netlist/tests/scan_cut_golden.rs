//! Golden pin of netlist construction and the full-scan cut.
//!
//! Node and edge ids key every Monte-Carlo draw downstream: chip
//! instances draw one delay per edge id, defect sizes are keyed by edge
//! id, and suspects, cones and dictionaries are listed in id order. So
//! neither the sequential circuit `generate` returns nor the
//! combinational circuit `generate_combinational` returns may move when
//! the builder or the scan cut gets faster. This suite hashes everything
//! that fixes those ids — names, kinds, the fanin CSR with its edge ids,
//! the output list and the topological order — and, separately,
//! everything construction derives from them — levels and their groups,
//! the fanout CSR and output positions — for two ISCAS-89 profiles and
//! the 100k-gate synthetic profile. The scan-cut id digests were
//! recorded before the builder's pending set became a per-node flag; the
//! sequential and derived digests before the builder stopped staging one
//! allocation per node.
//!
//! Run it in release: the 100k-gate case builds a full netlist.

use sdd_netlist::generator::generate;
use sdd_netlist::{profiles, Circuit};
use std::collections::HashSet;

/// Generator seed of every pinned circuit.
const SEED: u64 = 1;

/// 64-bit FNV-1a over little-endian words and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// What fixes the ids: names, kinds, fanin rows, outputs, topo order.
fn digest(c: &Circuit) -> u64 {
    let mut h = Fnv::new();
    h.str(c.name());
    h.word(c.num_nodes() as u64);
    h.word(c.num_edges() as u64);
    for id in c.node_ids() {
        let node = c.node(id);
        h.str(node.name());
        h.str(&node.kind().to_string());
        // One CSR row: length, driver ids, then the arcs' edge ids.
        h.word(node.fanins().len() as u64);
        for f in node.fanins() {
            h.word(f.index() as u64);
        }
        for e in node.fanin_edges() {
            h.word(e.index() as u64);
        }
    }
    h.word(c.primary_outputs().len() as u64);
    for o in c.primary_outputs() {
        h.word(o.index() as u64);
    }
    for id in c.topo_order() {
        h.word(id.index() as u64);
    }
    h.0
}

/// What construction derives from the ids: levels, the per-level
/// groups, the fanout CSR and each node's output position.
fn derived_digest(c: &Circuit) -> u64 {
    let mut h = Fnv::new();
    h.word(u64::from(c.depth()));
    for id in c.node_ids() {
        h.word(u64::from(c.level(id)));
        let fanouts = c.fanout_edges(id);
        h.word(fanouts.len() as u64);
        for e in fanouts {
            h.word(e.index() as u64);
        }
        h.word(c.output_position(id).map_or(u64::MAX, |p| p as u64));
    }
    // One level past the depth, which must be empty.
    for level in 0..=c.depth() + 1 {
        let group = c.nodes_at_level(level);
        h.word(group.len() as u64);
        for id in group {
            h.word(id.index() as u64);
        }
    }
    h.0
}

/// `find` maps every name back to its node. It scans the name list, so
/// on large circuits only a stride sample is looked up; the names are
/// checked distinct for all nodes.
fn assert_find_round_trips(c: &Circuit) {
    let distinct: HashSet<&str> = c.node_ids().map(|id| c.node(id).name()).collect();
    assert_eq!(distinct.len(), c.num_nodes(), "{}: names repeat", c.name());
    let stride = (c.num_nodes() / 2_000).max(1);
    for id in c.node_ids().step_by(stride) {
        assert_eq!(c.find(c.node(id).name()), Some(id), "{}", c.name());
    }
    assert_eq!(c.find("no such signal"), None);
}

/// Expected digests of one profile, sequential and cut.
struct Pins {
    sequential: u64,
    sequential_derived: u64,
    cut: u64,
    cut_derived: u64,
}

fn check(name: &str, pins: Pins) {
    let profile = profiles::by_name(name).expect("known profile");
    let sequential = generate(&profile.to_config(SEED)).expect("profile generates");
    assert!(!sequential.is_combinational());
    assert_find_round_trips(&sequential);
    let cut = sequential.to_combinational().expect("scan cut");
    assert!(cut.is_combinational());
    assert_find_round_trips(&cut);
    let got = [
        digest(&sequential),
        derived_digest(&sequential),
        digest(&cut),
        derived_digest(&cut),
    ];
    let expected = [
        pins.sequential,
        pins.sequential_derived,
        pins.cut,
        pins.cut_derived,
    ];
    let what = [
        "sequential",
        "sequential derived",
        "scan-cut",
        "scan-cut derived",
    ];
    for ((got, expected), what) in got.into_iter().zip(expected).zip(what) {
        assert_eq!(got, expected, "{name}: {what} digest moved");
    }
}

#[test]
fn s1196_scan_cut_is_pinned() {
    check(
        "s1196",
        Pins {
            sequential: 386_910_036_245_578_617,
            sequential_derived: 14_091_110_785_028_741_078,
            cut: 11_268_987_462_190_459_788,
            cut_derived: 4_688_221_849_640_175_272,
        },
    );
}

#[test]
fn s15850_scan_cut_is_pinned() {
    check(
        "s15850",
        Pins {
            sequential: 13_491_919_925_924_772_042,
            sequential_derived: 9_702_868_581_980_372_613,
            cut: 3_330_471_071_893_175_535,
            cut_derived: 13_503_774_932_268_896_780,
        },
    );
}

#[test]
fn synth100k_scan_cut_is_pinned() {
    check(
        "synth100k",
        Pins {
            sequential: 2_304_552_227_874_858_348,
            sequential_derived: 426_605_119_001_483_877,
            cut: 7_293_876_495_985_949_449,
            cut_derived: 12_424_588_392_533_964_040,
        },
    );
}
