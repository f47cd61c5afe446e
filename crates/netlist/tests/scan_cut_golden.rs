//! Golden pin of the full-scan cut.
//!
//! Node and edge ids key every Monte-Carlo draw downstream: chip
//! instances draw one delay per edge id, defect sizes are keyed by edge
//! id, and suspects, cones and dictionaries are listed in id order. So
//! the combinational circuit `generate_combinational` returns must not
//! move when the builder or the scan cut gets faster. This suite hashes
//! everything that fixes those ids — names, kinds, the fanin CSR with
//! its edge ids, the output list and the topological order — for two
//! ISCAS-89 profiles and the 100k-gate synthetic profile, and compares
//! with digests recorded before the builder's pending set became a
//! per-node flag.
//!
//! Run it in release: the 100k-gate case builds a full netlist.

use sdd_netlist::generator::generate_combinational;
use sdd_netlist::{profiles, Circuit};

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

fn check(name: &str, expected: u64) {
    let profile = profiles::by_name(name).expect("known profile");
    let c = generate_combinational(&profile, SEED).expect("profile generates and cuts");
    assert!(c.is_combinational());
    assert_eq!(digest(&c), expected, "{name}: scan-cut digest moved");
}

#[test]
fn s1196_scan_cut_is_pinned() {
    check("s1196", 11_268_987_462_190_459_788);
}

#[test]
fn s15850_scan_cut_is_pinned() {
    check("s15850", 3_330_471_071_893_175_535);
}

#[test]
fn synth100k_scan_cut_is_pinned() {
    check("synth100k", 7_293_876_495_985_949_449);
}
