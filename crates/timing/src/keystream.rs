//! Lane-parallel ChaCha8 keystreams of Monte-Carlo chip instances.
//!
//! Chip instance `i` of a stream draws its delays from
//! `ChaCha8Rng::seed_from_u64(seed ^ i·φ)` (see
//! [`CircuitTiming::sample_instance_indexed`](crate::CircuitTiming::sample_instance_indexed)):
//! first the die-level factor, then one local factor per arc, each a
//! Box-Muller normal. A normal reads two `u64` words, `u1` then `u2`,
//! and redraws `u1` while `u1 ≤ f64::MIN_POSITIVE`, so draw `d` (draw 0
//! is the die factor, draw `e + 1` is arc `e`) has its accepted `u1` at
//! keystream word `4·d + 2·r`, where `r` counts the rejected attempts of
//! draws `0..=d`. A rejection needs 53 zero bits, so `r` is almost
//! surely 0 — but that is not assumed: [`ChipStreams::new`]
//! scans each keystream once for rejections, after which any arc's
//! delays can be drawn on their own from known word offsets.
//!
//! The block function runs 8 streams at once ([`LANES`]), word for word
//! the vendored `ChaCha8Rng` (zero nonce, 64-bit block counter in words
//! 12–13). One safe body is compiled twice, with and without AVX2, and
//! picked at run time.

use crate::dist::{box_muller, rejected};
use crate::VariationModel;

/// Streams per lane-parallel ChaCha8 block.
const LANES: usize = 8;

/// One word of every lane.
type Lanes = [u32; LANES];

/// One ChaCha8 block per lane, word-major: `block[word][lane]`.
type Block = [Lanes; 16];

const EMPTY_BLOCK: Block = [[0; LANES]; 16];

/// Unshifted draws per keystream block: 16 words, 4 per draw.
pub(crate) const QUAD: usize = 4;

/// Blocks computed per call while scanning a keystream.
const SCAN_CHUNK: usize = 16;

/// The ChaCha key of `ChaCha8Rng::seed_from_u64(state)`: the 32-byte
/// seed is eight SplitMix64 outputs truncated to `u32`, read
/// little-endian, so key word `i` is the `i`-th output itself.
fn key_of(mut state: u64) -> [u32; 8] {
    std::array::from_fn(|_| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u32
    })
}

/// The vendored `rand`'s `f64` in `[0, 1)` from one `u64` word.
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The Box-Muller normal of the four keystream words of one accepted
/// draw: `u1` from the first two, `u2` from the last two.
#[inline]
fn normal(w: [u32; 4]) -> f64 {
    let u1 = unit_f64(w[0] as u64 | (w[1] as u64) << 32);
    let u2 = unit_f64(w[2] as u64 | (w[3] as u64) << 32);
    box_muller(u1, u2)
}

/// Fills `out[i]` with the ChaCha8 block at counter `start[l] + i` of
/// lane `l`'s key (`key[w][l]` is key word `w` of lane `l`).
fn blocks(key: &[Lanes; 8], start: &[u64; LANES], out: &mut [Block]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `blocks_avx2` only requires AVX2, which the CPU was
        // just detected to support.
        return unsafe { blocks_avx2(key, start, out) };
    }
    blocks_body(key, start, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blocks_avx2(key: &[Lanes; 8], start: &[u64; LANES], out: &mut [Block]) {
    blocks_body(key, start, out)
}

#[inline(always)]
fn blocks_body(key: &[Lanes; 8], start: &[u64; LANES], out: &mut [Block]) {
    for (i, block) in out.iter_mut().enumerate() {
        let counter: [u64; LANES] = std::array::from_fn(|l| start[l].wrapping_add(i as u64));
        let mut x = EMPTY_BLOCK;
        x[0] = [0x6170_7865; LANES];
        x[1] = [0x3320_646E; LANES];
        x[2] = [0x7962_2D32; LANES];
        x[3] = [0x6B20_6574; LANES];
        x[4..12].copy_from_slice(key);
        x[12] = std::array::from_fn(|l| counter[l] as u32);
        x[13] = std::array::from_fn(|l| (counter[l] >> 32) as u32);
        let input = x;
        for _ in 0..4 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, inp) in x.iter_mut().zip(&input) {
            *word = add(*word, *inp);
        }
        *block = x;
    }
}

#[inline(always)]
fn quarter_round(x: &mut Block, a: usize, b: usize, c: usize, d: usize) {
    let (mut va, mut vb, mut vc, mut vd) = (x[a], x[b], x[c], x[d]);
    va = add(va, vb);
    vd = rotl(xor(vd, va), 16);
    vc = add(vc, vd);
    vb = rotl(xor(vb, vc), 12);
    va = add(va, vb);
    vd = rotl(xor(vd, va), 8);
    vc = add(vc, vd);
    vb = rotl(xor(vb, vc), 7);
    (x[a], x[b], x[c], x[d]) = (va, vb, vc, vd);
}

// Plain index loops: LLVM turns these into one vector op per call,
// where `array::from_fn` closures stay scalar.
#[inline(always)]
fn add(mut a: Lanes, b: Lanes) -> Lanes {
    for l in 0..LANES {
        a[l] = a[l].wrapping_add(b[l]);
    }
    a
}

#[inline(always)]
fn xor(mut a: Lanes, b: Lanes) -> Lanes {
    for l in 0..LANES {
        a[l] ^= b[l];
    }
    a
}

#[inline(always)]
fn rotl(mut a: Lanes, n: u32) -> Lanes {
    for v in &mut a {
        *v = v.rotate_left(n);
    }
    a
}

/// The keystreams of a batch of chip instances, and what it takes to
/// draw any arc's delays from them on demand: each chip's key, its
/// die-level factor, and where its rejected `u1` attempts shift its
/// later draws.
#[derive(Debug, Clone)]
pub(crate) struct ChipStreams {
    n: usize,
    /// Per group of [`LANES`] chips, the key words lane by lane (unused
    /// lanes of the last group carry a zero key and are never read).
    keys: Vec<[Lanes; 8]>,
    /// Per chip, the draws that rejected a `u1`, as `(draw, rejected
    /// attempts of draws 0..=draw)`, ascending. Almost always empty.
    shifts: Vec<Vec<(u64, u64)>>,
    /// Per chip, the die-level factor `g` (draw 0).
    globals: Vec<f64>,
    means: Vec<f64>,
    variation: VariationModel,
    /// Keystream words that read as zero: `(chip, word position)`.
    #[cfg(test)]
    planted: Vec<(usize, u64)>,
}

impl ChipStreams {
    /// The streams `ChaCha8Rng::seed_from_u64(seed)` for each of `seeds`,
    /// drawing arc `e`'s delay around `means[e]`. Scans every keystream
    /// once for rejected `u1` attempts and draws each die-level factor.
    pub(crate) fn new(seeds: &[u64], means: Vec<f64>, variation: VariationModel) -> ChipStreams {
        ChipStreams::unscanned(seeds, means, variation).scanned()
    }

    /// [`ChipStreams::new`] over keystreams whose words at `planted`
    /// (`(chip, word position)`) read as zero, to plant rejections.
    #[cfg(test)]
    pub(crate) fn with_plants(
        seeds: &[u64],
        means: Vec<f64>,
        variation: VariationModel,
        planted: Vec<(usize, u64)>,
    ) -> ChipStreams {
        let mut streams = ChipStreams::unscanned(seeds, means, variation);
        streams.planted = planted;
        streams.scanned()
    }

    fn unscanned(seeds: &[u64], means: Vec<f64>, variation: VariationModel) -> ChipStreams {
        let keys = seeds
            .chunks(LANES)
            .map(|chunk| {
                let mut lanes = [[0; LANES]; 8];
                for (l, &seed) in chunk.iter().enumerate() {
                    for (w, k) in key_of(seed).into_iter().enumerate() {
                        lanes[w][l] = k;
                    }
                }
                lanes
            })
            .collect();
        ChipStreams {
            n: seeds.len(),
            keys,
            shifts: vec![Vec::new(); seeds.len()],
            globals: Vec::new(),
            means,
            variation,
            #[cfg(test)]
            planted: Vec::new(),
        }
    }

    /// Records every chip's rejections, then draws the die-level factors.
    fn scanned(mut self) -> ChipStreams {
        let n_draws = self.means.len() as u64 + 1;
        for group in 0..self.keys.len() {
            let flagged = self.rejection_candidates(group, n_draws);
            for l in (0..LANES).filter(|&l| flagged[l]) {
                let chip = group * LANES + l;
                self.shifts[chip] = self.walk_rejections(chip, n_draws);
            }
        }
        let mut globals = Vec::with_capacity(self.n);
        let mut g = [[0.0; LANES]; QUAD];
        for group in 0..self.keys.len() {
            self.normals(group, 0, 1, &mut g);
            globals.extend_from_slice(&g[0][..LANES.min(self.n - group * LANES)]);
        }
        self.globals = globals;
        self
    }

    /// Chips whose keystream, over the words `n_draws` unshifted draws
    /// occupy, holds a word pair that would reject as `u1`. The first
    /// rejection of a stream sits at an unshifted draw position, so a
    /// chip not flagged here rejects nothing.
    fn rejection_candidates(&self, group: usize, n_draws: u64) -> [bool; LANES] {
        let n_blocks = (4 * n_draws).div_ceil(16);
        let mut buf = [EMPTY_BLOCK; SCAN_CHUNK];
        let mut hits = [0u32; LANES];
        let mut first = 0;
        while first < n_blocks {
            let len = (n_blocks - first).min(SCAN_CHUNK as u64) as usize;
            self.blocks(group, &[first; LANES], &mut buf[..len]);
            for block in &buf[..len] {
                for pair in block.chunks_exact(2) {
                    for (hit, (&lo, &hi)) in hits.iter_mut().zip(pair[0].iter().zip(&pair[1])) {
                        // `(lo | hi << 32) >> 11 == 0`, i.e. `u1 == 0`.
                        *hit |= ((hi == 0) & (lo >> 11 == 0)) as u32;
                    }
                }
            }
            first += len as u64;
        }
        hits.map(|h| h != 0)
    }

    /// Walks one chip's keystream as the sequential sampler does and
    /// records the draws that rejected a `u1`.
    fn walk_rejections(&self, chip: usize, n_draws: u64) -> Vec<(u64, u64)> {
        let (group, lane) = (chip / LANES, chip % LANES);
        let mut cached = (u64::MAX, EMPTY_BLOCK);
        let mut word_pair = |pos: u64| {
            let (counter, w) = (pos / 16, (pos % 16) as usize);
            if cached.0 != counter {
                cached.0 = counter;
                self.blocks(
                    group,
                    &[counter; LANES],
                    std::slice::from_mut(&mut cached.1),
                );
            }
            cached.1[w][lane] as u64 | (cached.1[w + 1][lane] as u64) << 32
        };
        let (mut pos, mut rejections, mut shifts) = (0, 0, Vec::new());
        for draw in 0..n_draws {
            let before = rejections;
            while rejected(unit_f64(word_pair(pos))) {
                pos += 2;
                rejections += 1;
            }
            if rejections > before {
                shifts.push((draw, rejections));
            }
            pos += 4;
        }
        shifts
    }

    /// [`blocks`] for one group of chips, with planted words zeroed.
    fn blocks(&self, group: usize, start: &[u64; LANES], out: &mut [Block]) {
        blocks(&self.keys[group], start, out);
        #[cfg(test)]
        for &(chip, pos) in &self.planted {
            let (lane, counter) = (chip % LANES, pos / 16);
            if chip / LANES == group && counter >= start[lane] {
                if let Some(block) = out.get_mut((counter - start[lane]) as usize) {
                    block[(pos % 16) as usize][lane] = 0;
                }
            }
        }
    }

    /// Rejected `u1` attempts of draws `0..=draw` on one chip.
    fn shift(&self, chip: usize, draw: u64) -> u64 {
        let Some(shifts) = self.shifts.get(chip) else {
            return 0; // an unused lane of the last group
        };
        match shifts.partition_point(|&(d, _)| d <= draw) {
            0 => 0,
            i => shifts[i - 1].1,
        }
    }

    /// The standard normals of draws `QUAD·quad + j` for the `j` whose
    /// bit is set in `wanted`, for every chip of `group`
    /// (`out[j][lane]`), as the sequential sampler draws them. One block
    /// per lane holds the whole quad unless a rejection shifted it.
    fn normals(&self, group: usize, quad: u64, wanted: u8, out: &mut [[f64; LANES]; QUAD]) {
        let js = (0..QUAD).filter(|j| wanted & 1 << j != 0);
        let chips = group * LANES..((group + 1) * LANES).min(self.n);
        if self.shifts[chips].iter().all(|s| s.is_empty()) {
            let mut block = [EMPTY_BLOCK];
            self.blocks(group, &[quad; LANES], &mut block);
            let b = &block[0];
            for j in js {
                let w = 4 * j;
                out[j] = std::array::from_fn(|l| {
                    normal([b[w][l], b[w + 1][l], b[w + 2][l], b[w + 3][l]])
                });
            }
            return;
        }
        // Word position of each draw's accepted u1, per lane.
        let pos: [[u64; LANES]; QUAD] = std::array::from_fn(|j| {
            let d = QUAD as u64 * quad + j as u64;
            std::array::from_fn(|l| 4 * d + 2 * self.shift(group * LANES + l, d))
        });
        let start: [u64; LANES] = std::array::from_fn(|l| pos[0][l] / 16);
        let last = (u8::BITS - 1 - wanted.leading_zeros()) as usize;
        let span = (0..LANES)
            .map(|l| (pos[last][l] + 3) / 16 - start[l] + 1)
            .max()
            .unwrap_or(1);
        let mut buf = vec![EMPTY_BLOCK; span as usize];
        self.blocks(group, &start, &mut buf);
        for j in js {
            out[j] = std::array::from_fn(|l| {
                normal(std::array::from_fn(|k| {
                    let w = (pos[j][l] - 16 * start[l]) as usize + k;
                    buf[w / 16][w % 16][l]
                }))
            });
        }
    }

    /// The delays on every chip of the arcs of quad `quad` whose bit is
    /// set in `wanted` (bit `j` is draw `QUAD·quad + j`, that is arc
    /// `QUAD·quad + j - 1`; draw 0, the die-level factor, is never
    /// wanted), as each chip's sequential sampler draws them. Rows not
    /// wanted stay empty.
    pub(crate) fn draw_quad(&self, quad: usize, wanted: u8) -> [Vec<f64>; QUAD] {
        let arc = |j: usize| QUAD * quad + j - 1;
        let mut rows: [Vec<f64>; QUAD] = Default::default();
        let mut locals = [[0.0; LANES]; QUAD];
        for (group, globals) in self.globals.chunks(LANES).enumerate() {
            self.normals(group, quad as u64, wanted, &mut locals);
            for (j, row) in rows.iter_mut().enumerate() {
                if wanted & 1 << j != 0 {
                    let mean = self.means[arc(j)];
                    row.extend(
                        globals
                            .iter()
                            .zip(locals[j])
                            .map(|(&g, l)| self.variation.delay(mean, g, l)),
                    );
                }
            }
        }
        rows
    }

    /// Whether some drawn delay can be finite and negative: only when
    /// its mean is, since a delay is floored at 5% of its mean.
    pub(crate) fn may_draw_negative(&self) -> bool {
        self.means.iter().any(|&m| m < 0.0)
    }

    pub(crate) fn n_samples(&self) -> usize {
        self.n
    }

    pub(crate) fn n_edges(&self) -> usize {
        self.means.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitTiming, InstanceBatch, TimingInstance};
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sdd_netlist::EdgeId;

    /// Lane `l` of `blocks` at counters `start[l]..start[l] + len`,
    /// through the dispatched path and through the portable body.
    fn lane_words(seeds: &[u64; LANES], start: &[u64; LANES], len: usize) -> Vec<Vec<u32>> {
        let mut key = [[0; LANES]; 8];
        for (l, &seed) in seeds.iter().enumerate() {
            for (w, k) in key_of(seed).into_iter().enumerate() {
                key[w][l] = k;
            }
        }
        let mut dispatched = vec![EMPTY_BLOCK; len];
        let mut portable = vec![EMPTY_BLOCK; len];
        blocks(&key, start, &mut dispatched);
        blocks_body(&key, start, &mut portable);
        assert_eq!(dispatched, portable, "AVX2 and portable blocks differ");
        (0..LANES)
            .map(|l| {
                dispatched
                    .iter()
                    .flat_map(|block| block.iter().map(move |w| w[l]))
                    .collect()
            })
            .collect()
    }

    /// A one-stream ChaCha8 block, written out independently of the
    /// lane code: constants, key, 64-bit counter in words 12–13, zero
    /// nonce, four double rounds, feed-forward.
    fn reference_block(key: [u32; 8], counter: u64) -> [u32; 16] {
        fn qr(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        }
        let mut x = [0u32; 16];
        x[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
        x[4..12].copy_from_slice(&key);
        x[12] = counter as u32;
        x[13] = (counter >> 32) as u32;
        let input = x;
        for _ in 0..4 {
            for (a, b, c, d) in [(0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15)] {
                qr(&mut x, a, b, c, d);
            }
            for (a, b, c, d) in [(0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14)] {
                qr(&mut x, a, b, c, d);
            }
        }
        for (w, i) in x.iter_mut().zip(input) {
            *w = w.wrapping_add(i);
        }
        x
    }

    #[test]
    fn lazy_sample_differential_lane_block_matches_chacha8rng() {
        let mut keys = ChaCha8Rng::seed_from_u64(0x5EED);
        for round in 0..8u64 {
            let seeds: [u64; LANES] = std::array::from_fn(|_| keys.next_u64());
            // Lanes start at different counters: each must follow its own.
            let start: [u64; LANES] = std::array::from_fn(|l| (l as u64 * round) % 5);
            let len = 9;
            let lanes = lane_words(&seeds, &start, len);
            for l in 0..LANES {
                let mut rng = ChaCha8Rng::seed_from_u64(seeds[l]);
                for _ in 0..16 * start[l] {
                    rng.next_u32();
                }
                let expected: Vec<u32> = (0..16 * len).map(|_| rng.next_u32()).collect();
                assert_eq!(lanes[l], expected, "round {round} lane {l}");
                assert_eq!(
                    reference_block(key_of(seeds[l]), start[l])[..],
                    expected[..16],
                    "reference block disagrees with ChaCha8Rng"
                );
            }
        }
    }

    #[test]
    fn lazy_sample_differential_counter_carries_into_word_13() {
        // `ChaCha8Rng` cannot seek to block 2^32, so the lane blocks are
        // checked there against the reference block, which the test above
        // checks against `ChaCha8Rng` at low counters.
        let seeds: [u64; LANES] = std::array::from_fn(|l| 0xC0FFEE + l as u64);
        let carry = 1u64 << 32;
        let start: [u64; LANES] = std::array::from_fn(|l| match l {
            0..=3 => carry - 2 + l as u64, // 2^32-2 .. 2^32+1
            4 => u64::MAX - 1,             // wraps to 0 after two blocks
            5 => (7 << 32) - 1,
            _ => 0,
        });
        let len = 3;
        let lanes = lane_words(&seeds, &start, len);
        for l in 0..LANES {
            for i in 0..len {
                let counter = start[l].wrapping_add(i as u64);
                assert_eq!(
                    lanes[l][16 * i..16 * (i + 1)],
                    reference_block(key_of(seeds[l]), counter),
                    "lane {l} counter {counter:#x}"
                );
            }
        }
    }

    #[test]
    fn lazy_sample_differential_unit_and_rejection_match_the_rng() {
        let mut a = ChaCha8Rng::seed_from_u64(3);
        let mut b = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert_eq!(a.gen::<f64>().to_bits(), unit_f64(b.next_u64()).to_bits());
        }
        // A u1 word rejects exactly when its top 53 bits are zero.
        assert!(rejected(unit_f64(0)) && rejected(unit_f64(2047)));
        assert!(!rejected(unit_f64(2048)));
    }

    /// `ChaCha8Rng` with the words at `planted` word positions read as 0.
    struct PlantedRng {
        inner: ChaCha8Rng,
        pos: u64,
        planted: Vec<u64>,
    }

    impl RngCore for PlantedRng {
        fn next_u32(&mut self) -> u32 {
            let word = self.inner.next_u32();
            self.pos += 1;
            if self.planted.contains(&(self.pos - 1)) {
                0
            } else {
                word
            }
        }

        fn next_u64(&mut self) -> u64 {
            let lo = self.next_u32() as u64;
            lo | (self.next_u32() as u64) << 32
        }
    }

    fn assert_rows_match(batch: &InstanceBatch, reference: &[TimingInstance]) {
        assert_eq!(batch.n_samples(), reference.len());
        for e in 0..batch.n_edges() {
            let e = EdgeId::from_index(e);
            let row = batch.edge_delays(e);
            for (s, inst) in reference.iter().enumerate() {
                assert_eq!(
                    row[s].to_bits(),
                    inst.delay(e).to_bits(),
                    "edge {e} sample {s}: {} vs {}",
                    row[s],
                    inst.delay(e)
                );
            }
        }
    }

    #[test]
    fn lazy_sample_differential_planted_rejections() {
        // Draw d's unshifted u1 pair is words 4d, 4d+1 (draw 0 is the
        // die factor, draw e+1 arc e); zeroing both rejects it.
        let n_edges = 37;
        let means: Vec<f64> = (0..n_edges).map(|e| 0.1 + 0.01 * e as f64).collect();
        let timing = CircuitTiming::from_means(means.clone(), VariationModel::default());
        let reject = |d: u64| [4 * d, 4 * d + 1];
        let planted: Vec<(usize, Vec<u64>)> = vec![
            (0, reject(0).to_vec()), // the die factor
            (1, reject(6).to_vec()), // shifts later draws onto block edges
            // Two rejections in one draw (the second attempt reads
            // words 4d+2, 4d+3), then one more later on.
            (2, [reject(3), [14, 15], reject(20).map(|w| w + 4)].concat()),
            (3, vec![26, 27]), // a zero u2: flagged, not rejected
            (5, reject(n_edges as u64).to_vec()), // the last arc
            (9, reject(1).to_vec()), // the second lane group
            (9, reject(4).map(|w| w + 2).to_vec()),
        ];
        let n = 11;
        let seeds: Vec<u64> = (0..n as u64)
            .map(|s| 0xABCD ^ s.wrapping_mul(977))
            .collect();
        let reference: Vec<TimingInstance> = seeds
            .iter()
            .enumerate()
            .map(|(chip, &seed)| {
                let mut rng = PlantedRng {
                    inner: ChaCha8Rng::seed_from_u64(seed),
                    pos: 0,
                    planted: planted
                        .iter()
                        .filter(|(c, _)| *c == chip)
                        .flat_map(|(_, w)| w.iter().copied())
                        .collect(),
                };
                timing.sample_instance(&mut rng)
            })
            .collect();
        let plants: Vec<(usize, u64)> = planted
            .iter()
            .flat_map(|(c, w)| w.iter().map(move |&w| (*c, w)))
            .collect();
        let streams = ChipStreams::with_plants(&seeds, means, VariationModel::default(), plants);
        assert_eq!(streams.shifts[0], vec![(0, 1)]);
        assert_eq!(streams.shifts[1], vec![(6, 1)]);
        assert_eq!(streams.shifts[2], vec![(3, 2), (20, 3)]);
        assert!(streams.shifts[3].is_empty(), "a zero u2 is not a rejection");
        assert_eq!(streams.shifts[5], vec![(n_edges as u64, 1)]);
        assert_eq!(streams.shifts[9], vec![(1, 1), (4, 2)]);
        for chip in [4, 6, 7, 8, 10] {
            assert!(streams.shifts[chip].is_empty());
        }
        // Row by row, and in one bulk pass over quads.
        let bulk = InstanceBatch::sampled(streams.clone());
        bulk.draw_rows((0..n_edges).map(EdgeId::from_index));
        assert_eq!(bulk.drawn_rows(), n_edges);
        assert_rows_match(&bulk, &reference);
        let batch = InstanceBatch::sampled(streams);
        assert_rows_match(&batch, &reference);
        // Unplanted chips are the real streams.
        let real = timing.sample_instance(&mut ChaCha8Rng::seed_from_u64(seeds[4]));
        assert_eq!(reference[4], real);
    }
}
