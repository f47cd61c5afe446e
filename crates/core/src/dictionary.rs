//! The probabilistic fault dictionary (Section C-1, Definition E.1).
//!
//! For the defect-free circuit model, the dictionary holds the critical
//! probability matrix `M_crt = Err_M(C, TP, clk)`; for each suspect arc
//! `i` it holds `E_crt = Err_M(D_s(C), TP, clk)` with `ρ_i = 1` — i.e.
//! the failure probabilities when a defect of random size sits on arc
//! `i`. The *signature probability matrix* is `S_crt = E_crt − M_crt`.
//!
//! Estimation is Monte-Carlo statistical dynamic timing simulation with
//! common random numbers: for every (pattern, chip sample) the
//! defect-free baseline arrivals are computed once, and every suspect's
//! defective arrivals are recomputed only over the fanout cone of its arc
//! ([`sdd_timing::dynamic::DefectCone`]). Common random numbers guarantee
//! `err_ij ≥ crt_ij` sample-by-sample, so `S_crt ≥ 0` exactly as the
//! paper notes after Definition E.1.
//!
//! Outputs structurally unreachable from a suspect arc have
//! `err_ij = crt_ij` (signature 0) and are stored implicitly.
//!
//! The build is two-phase: `simulate_fail_masks_batched` records the raw
//! pass/fail outcome of every (pattern, chip sample, suspect) as bit
//! grids, and `assemble_from_masks` turns grids into probabilities
//! (plus, optionally, the joint consistency estimate against an observed
//! behaviour matrix). Both phases run inside [`DictionaryCache`], which
//! shares the chip-independent grids across a campaign (a one-off
//! [`ProbabilisticDictionary::build`] uses a throwaway cache). Every
//! random quantity is keyed, not sequenced: the chip
//! sample by (seed, pattern, sample) and the defect size by (seed,
//! pattern, sample, suspect *arc*) — so simulating any subset of
//! suspects yields bit-identical grids to selecting the same rows from a
//! superset build.

use crate::cache::DictionaryCache;
use crate::metrics::Counter;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use sdd_atpg::PatternSet;
use sdd_netlist::logic::simulate_pair;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::crit::ProbMatrix;
use sdd_timing::dynamic::{transition_arrivals_batch, BaselineOutputs, DefectCone, FusedScratch};
use sdd_timing::{CircuitTiming, Dist};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which kernel evaluates the dictionary's fail probabilities.
///
/// The `Batched` kernel is the Monte-Carlo production default. Per
/// (pattern, chip sample, suspect) it performs the same keyed random
/// draws and the same per-sample floating-point operations as a plain
/// per-sample walk — the test-only scalar oracle it is differentially
/// pinned against — so its bit grids, every stored `.sdds` checkpoint
/// and every ranking are reproducible from those keyed draws alone.
///
/// The `Analytic` kernel draws **no** instances at all: it propagates
/// `(mean, variance)` moments through each defect cone
/// ([`sdd_timing::analytic`]) and fills the probability matrices from
/// normal-CDF tails. Its grids are *not* bit-identical to MC — they
/// agree within a bounded divergence (the `analytic_kernel` differential
/// suite, DESIGN.md §4.7) — so analytic results never touch the on-disk
/// `.sdds` store and are cached in a separate in-memory section.
///
/// The `Screened` kernel is the tiered pipeline of both: an analytic
/// screen over **all** suspects ranks them by match score against the
/// observed behaviour and prunes to the top-K survivors (plus a safety
/// margin, see [`ScreenConfig`]); only the survivors are then MC
/// refined by the population-consistent kernel
/// (`simulate_fail_masks_shared`) — one shared chip population and
/// one defect size per `(chip, arc)` answering every pattern, the way a
/// physical chip meets a tester. Refined cells are unbiased with the
/// same per-cell variance as batched cells but are correlated across
/// patterns, so screened grids are **not** bit-identical to batched
/// grids; the `screened_kernel` differential suite pins rate
/// equivalence instead.
///
/// The kernel choice deliberately does **not** enter
/// [`StoreKey`](crate::store::StoreKey): only batched grids are ever
/// checkpointed, and keeping the key kernel-blind is exactly why the
/// analytic kernel must bypass the store. Screened refinement grids use
/// a different draw scheme, so they live in their own memory-only cache
/// section and never reach the `.sdds` store either.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimKernel {
    /// Sample-major batched evaluation: one pruned pass over the cone
    /// topology per (pattern, sink group) covering every chip sample
    /// ([`DefectCone::apply_batch_fused`]), reading delays from a
    /// contiguous [`sdd_timing::InstanceBatch`].
    #[default]
    Batched,
    /// Sampling-free moment propagation: Gauss–Hermite quadrature over
    /// the die-level factor, Clark max per merge, normal-CDF tails
    /// ([`sdd_timing::analytic::pattern_fail_probs`]).
    Analytic,
    /// Two-stage tiered pipeline: analytic screen over all suspects,
    /// batched MC refinement of the top-K survivors (see
    /// [`ScreenConfig`]). Requires an observed behaviour to score
    /// against.
    Screened,
}

/// Gauss–Hermite order of the die-level integral used by the screened
/// kernel's stage 1. The screen *ranks* suspects rather than estimating
/// probabilities, and the rank ordering is already stable at a coarse
/// rule — so stage 1 runs at 5 points instead of the analytic kernel's
/// default 16, cutting the fixed screening overhead to roughly a third.
/// Coarse and default-order results are not interchangeable; the cache
/// layer keys its analytic banks by the effective order so a screened
/// build never pollutes (or reads) a plain analytic run's bank.
pub const SCREEN_QUADRATURE_POINTS: usize = 5;

/// Stage-1 pruning budget of the tiered pipeline
/// ([`SimKernel::Screened`]).
///
/// The screen scores every suspect with
/// [`sdd_timing::analytic::match_scores`] (lower = better match against
/// the observed behaviour) and keeps the `top_k` best **plus** every
/// suspect whose score is within `margin × (worst − best score)` of the
/// K-th survivor — the margin is *relative to the observed score
/// spread*, not absolute. Because the score is a convex combination of
/// per-cell probability deviations, a per-cell analytic-vs-MC
/// divergence bound `ε` caps per-suspect score divergence at `ε`; and
/// because both estimators converge cell-wise as probabilities
/// saturate, the realized divergence contracts together with the
/// spread. A spread-proportional margin therefore stays meaningful in
/// both regimes — an absolute `ε` would keep *everyone* whenever the
/// workload saturates (spread ≪ ε, no pruning at all) while buying no
/// extra safety. Containment of the full-MC top-1 in the survivor set
/// is pinned per diagnosed chip by `tests/screened_kernel.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ScreenConfig {
    /// Number of best-scoring suspects guaranteed to survive the screen.
    pub top_k: usize,
    /// Safety margin on the K-th best score as a fraction of the
    /// observed score spread (worst − best): suspects within
    /// `margin × spread` of the K-th survivor survive too. The default
    /// 0.15 is the asserted per-cell divergence bound of the analytic
    /// kernel at paper-scale MC budgets (the `analytic_kernel`
    /// differential suite); normalizing by the spread keeps that bound
    /// meaningful when the workload saturates and all scores compress.
    pub margin: f64,
    /// Screening pattern budget: when `Some(s)` with `s` below the
    /// pattern count, stage 1 scores suspects on only the `s` behaviour
    /// columns with the most failing cells (ties towards lower pattern
    /// index) instead of all of them. Failing-cell-rich patterns carry
    /// the discriminating evidence, so the ranking survives the cut
    /// while the screen's analytic cone propagation — its entire cost —
    /// shrinks proportionally. `None` (the default) screens on every
    /// pattern; stage 2 always refines the full pattern set regardless.
    #[serde(default)]
    pub screen_patterns: Option<usize>,
}

impl Default for ScreenConfig {
    fn default() -> Self {
        ScreenConfig {
            top_k: 10,
            margin: 0.15,
            screen_patterns: None,
        }
    }
}

impl ScreenConfig {
    /// The default screen (alias of [`ScreenConfig::default`]).
    pub fn new() -> ScreenConfig {
        ScreenConfig::default()
    }

    /// Sets the guaranteed survivor count.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Sets the safety margin (a fraction of the score spread) on the
    /// K-th best score.
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Sets the screening pattern budget (`None` = score on every
    /// pattern).
    pub fn with_screen_patterns(mut self, screen_patterns: Option<usize>) -> Self {
        self.screen_patterns = screen_patterns;
        self
    }
}

/// Monte-Carlo budget for dictionary construction.
///
/// Non-exhaustive: construct via [`DictionaryConfig::default`] (or
/// [`DictionaryConfig::new`]) and refine with the `with_*` builders —
/// fields stay readable and assignable.
///
/// ```
/// use sdd_core::dictionary::{DictionaryConfig, SimKernel};
///
/// let cfg = DictionaryConfig::new()
///     .with_samples(60)
///     .with_seed(7)
///     .with_kernel(SimKernel::Analytic);
/// assert_eq!(cfg.n_samples, 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct DictionaryConfig {
    /// Chip samples per pattern (ignored by [`SimKernel::Analytic`],
    /// which draws no samples).
    pub n_samples: usize,
    /// Base seed; the full build is deterministic given the seed (the
    /// analytic kernel is deterministic regardless).
    pub seed: u64,
    /// The fail-probability kernel (see [`SimKernel`]).
    #[serde(default)]
    pub kernel: SimKernel,
    /// Stage-1 pruning budget, read only by [`SimKernel::Screened`].
    /// Deliberately outside [`StoreKey`](crate::store::StoreKey): the
    /// screen only decides *which* suspects get refined, and refinement
    /// grids are keyed per suspect, so they are valid cached inputs for
    /// any screen setting.
    #[serde(default)]
    pub screen: ScreenConfig,
}

impl Default for DictionaryConfig {
    fn default() -> Self {
        DictionaryConfig {
            n_samples: 200,
            seed: 0xD1C7,
            kernel: SimKernel::default(),
            screen: ScreenConfig::default(),
        }
    }
}

impl DictionaryConfig {
    /// The default budget (alias of [`DictionaryConfig::default`]).
    pub fn new() -> DictionaryConfig {
        DictionaryConfig::default()
    }

    /// Sets the chip-sample budget per pattern.
    pub fn with_samples(mut self, n_samples: usize) -> Self {
        self.n_samples = n_samples;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fail-probability kernel.
    pub fn with_kernel(mut self, kernel: SimKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the stage-1 pruning budget of [`SimKernel::Screened`].
    pub fn with_screen(mut self, screen: ScreenConfig) -> Self {
        self.screen = screen;
        self
    }
}

/// The per-suspect part of the dictionary: `E_crt` restricted to the
/// outputs reachable from the suspect arc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuspectSignature {
    edge: EdgeId,
    reachable: Vec<usize>,
    err: ProbMatrix,
    joint: Option<Vec<f64>>,
}

impl SuspectSignature {
    /// The suspect arc.
    pub fn edge(&self) -> EdgeId {
        self.edge
    }

    /// Positions (into the circuit's primary outputs) of the outputs this
    /// suspect can affect. All other outputs have zero signature.
    pub fn reachable_outputs(&self) -> &[usize] {
        &self.reachable
    }

    /// `err_kj` for reachable output slot `k` (position into
    /// [`SuspectSignature::reachable_outputs`]) and pattern `j`.
    pub fn err(&self, slot: usize, pattern: usize) -> f64 {
        self.err.get(slot, pattern)
    }

    /// The *joint* per-pattern consistency probability `φ_j` estimated
    /// without the output-independence approximation: the Monte-Carlo
    /// frequency of samples whose complete failure column equals the
    /// observed `B_j`. Present only when the dictionary was built against
    /// a behaviour matrix.
    ///
    /// This is the extension suggested by the paper's conclusion (future
    /// direction 5: "develop new error functions that are more consistent
    /// with the error definition in problem definition D.8"): chip-level
    /// delay correlation makes output failures strongly dependent, which
    /// the entrywise product of Algorithm E.1 step 6 ignores.
    pub fn joint_phi(&self, pattern: usize) -> Option<f64> {
        self.joint.as_ref().map(|v| v[pattern])
    }
}

/// The probabilistic fault dictionary: `M_crt` plus one
/// [`SuspectSignature`] per suspect arc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbabilisticDictionary {
    clk: f64,
    m_crt: ProbMatrix,
    suspects: Vec<SuspectSignature>,
}

impl ProbabilisticDictionary {
    /// Builds the dictionary by Monte-Carlo statistical dynamic timing
    /// simulation (parallelized over patterns), with the kernel selected
    /// by [`DictionaryConfig::kernel`].
    ///
    /// A one-off build through a private, throwaway
    /// [`DictionaryCache`]: the same code path as a cached build, with
    /// nothing kept afterwards (chip batches are not even kept between
    /// patterns). Builds that share work across chips or clocks should
    /// go through one long-lived [`DictionaryCache`] instead; the
    /// results are bit-identical.
    ///
    /// * `timing` — the statistical timing model (the predictor for the
    ///   failing chip's unknown delay configuration).
    /// * `defect_size` — the `δ` distribution of the single-defect model.
    /// * `suspect_edges` — the pruned suspect set (Algorithm E.1 step 1).
    /// * `clk` — the cut-off period, the same one used to observe `B`.
    ///
    /// # Panics
    ///
    /// Panics for sequential circuits, empty pattern sets or
    /// `n_samples == 0`.
    pub fn build(
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        suspect_edges: &[EdgeId],
        clk: f64,
        config: DictionaryConfig,
    ) -> ProbabilisticDictionary {
        ProbabilisticDictionary::build_with_behavior(
            circuit,
            timing,
            defect_size,
            patterns,
            suspect_edges,
            clk,
            config,
            None,
        )
    }

    /// [`ProbabilisticDictionary::build`] that additionally estimates,
    /// per suspect and pattern, the *joint* consistency probability
    /// against an observed behaviour matrix (see
    /// [`SuspectSignature::joint_phi`]).
    ///
    /// The joint estimate is a per-sample frequency, so it only exists
    /// for the Monte-Carlo kernels; under [`SimKernel::Analytic`] every
    /// `joint_phi` stays `None` and the diagnoser falls back to the
    /// independent-output product.
    ///
    /// Under [`SimKernel::Screened`] the behaviour is what stage 1
    /// scores against, so it is required: the analytic screen ranks all
    /// suspects by match score, prunes to the top-K survivors (plus
    /// margin, see [`ScreenConfig`]), and only the survivors are MC
    /// refined by the population-consistent stage-2 kernel
    /// (`simulate_fail_masks_shared`).
    ///
    /// # Panics
    ///
    /// Same conditions as [`ProbabilisticDictionary::build`]; also panics
    /// if the behaviour matrix shape mismatches the circuit/patterns, or
    /// if `behavior` is `None` under [`SimKernel::Screened`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_behavior(
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        suspect_edges: &[EdgeId],
        clk: f64,
        config: DictionaryConfig,
        behavior: Option<&crate::BehaviorMatrix>,
    ) -> ProbabilisticDictionary {
        DictionaryCache::one_shot().build_with_behavior(
            circuit,
            timing,
            defect_size,
            patterns,
            suspect_edges,
            clk,
            config,
            behavior,
            None,
        )
    }

    /// The cut-off period the probabilities refer to.
    pub fn clk(&self) -> f64 {
        self.clk
    }

    /// The defect-free critical probability matrix `M_crt`.
    pub fn m_crt(&self) -> &ProbMatrix {
        &self.m_crt
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.m_crt.rows()
    }

    /// Number of patterns.
    pub fn num_patterns(&self) -> usize {
        self.m_crt.cols()
    }

    /// The suspect signatures, in the order the suspect arcs were given.
    pub fn suspects(&self) -> &[SuspectSignature] {
        &self.suspects
    }

    /// The signature probability `s_ij = err_ij − crt_ij` (clamped at 0)
    /// for suspect `suspect`, reachable-output slot `slot` and pattern
    /// `pattern`.
    pub fn signature(&self, suspect: usize, slot: usize, pattern: usize) -> f64 {
        let s = &self.suspects[suspect];
        (s.err.get(slot, pattern) - self.m_crt.get(s.reachable[slot], pattern)).max(0.0)
    }

    /// The full (dense) signature column of one suspect under one
    /// pattern: `s_ij` for every output `i` (zeros for unreachable
    /// outputs). Mostly useful for inspection and the worked examples;
    /// the diagnosis algorithms use the sparse form directly.
    pub fn signature_column(&self, suspect: usize, pattern: usize) -> Vec<f64> {
        let mut col = vec![0.0; self.num_outputs()];
        let s = &self.suspects[suspect];
        for (slot, &out) in s.reachable.iter().enumerate() {
            col[out] = self.signature(suspect, slot, pattern);
        }
        col
    }
}

/// A dense bit matrix: `rows` Monte-Carlo samples × `width` outputs,
/// one bit per (sample, output) failure outcome.
///
/// Invariant: the padding bits past `width` in each row's last word are
/// zero, so whole-word compares and masks see only real outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitGrid {
    width: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitGrid {
    pub(crate) fn new(rows: usize, width: usize) -> BitGrid {
        let words_per_row = width.div_ceil(64).max(1);
        BitGrid {
            width,
            words_per_row,
            words: vec![0u64; rows * words_per_row],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, row: usize, bit: usize) {
        debug_assert!(bit < self.width);
        self.words[row * self.words_per_row + bit / 64] |= 1u64 << (bit % 64);
    }

    #[inline]
    pub(crate) fn get(&self, row: usize, bit: usize) -> bool {
        debug_assert!(bit < self.width);
        (self.words[row * self.words_per_row + bit / 64] >> (bit % 64)) & 1 != 0
    }

    /// Bit width of one row (number of tracked outputs).
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of rows (Monte-Carlo samples).
    pub(crate) fn rows(&self) -> usize {
        self.words.len() / self.words_per_row
    }

    /// The rows as word slices, in row order.
    fn row_words(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.words_per_row)
    }

    /// Overwrites `counts[i]` with the number of rows whose bit `i` is
    /// set. Visits set bits only.
    fn count_columns(&self, counts: &mut [u32]) {
        debug_assert_eq!(counts.len(), self.width);
        counts.fill(0);
        for row in self.row_words() {
            for (w, &word) in row.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    counts[w * 64 + bits.trailing_zeros() as usize] += 1;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Every row XOR'd with the one-row grid `row` of the same width.
    fn xor_each_row(&self, row: &BitGrid) -> BitGrid {
        debug_assert_eq!((row.rows(), row.width), (1, self.width));
        BitGrid {
            width: self.width,
            words_per_row: self.words_per_row,
            words: self
                .row_words()
                .flat_map(|r| r.iter().zip(&row.words).map(|(a, b)| a ^ b))
                .collect(),
        }
    }

    /// The backing words, row-major (for store serialization).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a grid from its width and backing words (store
    /// deserialization). Returns `None` when the word count is not a
    /// whole number of rows for that width, or a padding bit is set.
    pub(crate) fn from_words(width: usize, words: Vec<u64>) -> Option<BitGrid> {
        let words_per_row = width.div_ceil(64).max(1);
        if !words.len().is_multiple_of(words_per_row) {
            return None;
        }
        let padding = if width > 0 && width.is_multiple_of(64) {
            0
        } else {
            !0u64 << (width % 64)
        };
        if words
            .chunks_exact(words_per_row)
            .any(|row| row[words_per_row - 1] & padding != 0)
        {
            return None;
        }
        Some(BitGrid {
            width,
            words_per_row,
            words,
        })
    }
}

/// The cached Monte-Carlo outcomes of one suspect arc: which reachable
/// outputs failed, per pattern and chip sample.
#[derive(Debug, Clone)]
pub(crate) struct SuspectMasks {
    /// Positions (into the circuit's primary outputs) of the outputs the
    /// suspect can affect; grid columns follow this order.
    pub(crate) reachable: Vec<usize>,
    /// One grid per pattern: `n_samples` rows × `reachable.len()` bits.
    pub(crate) fails: Vec<BitGrid>,
}

/// Draws the defect size for one (chip sample, suspect) cell. Keyed on
/// the suspect *arc id*, not its position in the suspect list, so the
/// draw is independent of which other suspects are simulated alongside.
#[inline]
fn sample_delta(seed: u64, instance_index: u64, edge: EdgeId, defect_size: &Dist) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(instance_index)
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(edge.index() as u64),
    );
    defect_size.sample(&mut rng).max(0.0)
}

/// The defect cones of `suspects`, in suspect order. Extraction is
/// independent per suspect, so it runs across the pool; `collect` keeps
/// the order.
pub(crate) fn defect_cones(circuit: &Circuit, suspects: &[EdgeId]) -> Vec<DefectCone> {
    suspects
        .par_iter()
        .map(|&e| DefectCone::new(circuit, e))
        .collect()
}

/// Selects the behaviour columns stage 1 scores on: the
/// [`ScreenConfig::screen_patterns`] pattern positions with the most
/// failing cells, ties towards lower index, returned in ascending
/// pattern order. With no budget (or one at least the pattern count)
/// every column is selected.
pub(crate) fn screen_pattern_columns(
    behavior: &crate::BehaviorMatrix,
    budget: Option<usize>,
) -> Vec<usize> {
    let n = behavior.num_patterns();
    match budget {
        Some(s) if s < n => {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&j| (std::cmp::Reverse(behavior.failing_outputs(j).len()), j));
            let mut cols: Vec<usize> = order.into_iter().take(s.max(1)).collect();
            cols.sort_unstable();
            cols
        }
        _ => (0..n).collect(),
    }
}

/// Stage-1 survivor selection of the screened pipeline: scores every
/// suspect analytically against the observed behaviour
/// ([`sdd_timing::analytic::match_scores`]) and returns the indices —
/// in original suspect order — of the `top_k` best scorers plus every
/// suspect within [`ScreenConfig::margin`] × the score spread of the
/// K-th best score. Deterministic: score ties break towards lower arc
/// ids, and the margin rule depends only on the (deterministic)
/// analytic scores.
///
/// `cols` maps each column of `m_crt` (and of every suspect's `err`
/// matrix) to its pattern position in `behavior` — the identity when
/// the screen scores on the full pattern set, a sorted subset under a
/// [`ScreenConfig::screen_patterns`] budget.
pub(crate) fn screen_survivors(
    m_crt: &ProbMatrix,
    suspects: &[(EdgeId, &AnalyticSuspect)],
    behavior: &crate::BehaviorMatrix,
    cols: &[usize],
    screen: ScreenConfig,
) -> Vec<usize> {
    let k = screen.top_k.max(1);
    if suspects.len() <= k {
        return (0..suspects.len()).collect();
    }
    debug_assert_eq!(cols.len(), m_crt.cols(), "column map/matrix mismatch");
    let failing: Vec<Vec<usize>> = cols.iter().map(|&j| behavior.failing_outputs(j)).collect();
    let scored: Vec<(&[usize], &ProbMatrix)> = suspects
        .iter()
        .map(|(_, s)| (s.reachable.as_slice(), &s.err))
        .collect();
    let scores = sdd_timing::analytic::match_scores(m_crt, &scored, &failing);
    let mut order: Vec<usize> = (0..suspects.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .total_cmp(&scores[b])
            .then_with(|| suspects[a].0.cmp(&suspects[b].0))
    });
    // The margin is relative to the observed score spread: the
    // analytic-vs-MC divergence contracts together with the spread as
    // cells saturate, so a spread-proportional band keeps the
    // containment guarantee without going vacuous (an absolute band
    // wider than the whole spread would keep every suspect).
    let spread = scores[order[suspects.len() - 1]] - scores[order[0]];
    let threshold = scores[order[k - 1]] + screen.margin.max(0.0) * spread;
    (0..suspects.len())
        .filter(|&i| scores[i] <= threshold)
        .collect()
}

/// The per-suspect output of the analytic kernel: the suspect's `E_crt`
/// restricted to its reachable outputs, as probabilities (no per-sample
/// grids exist).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AnalyticSuspect {
    /// Positions (into the circuit's primary outputs) of the outputs the
    /// suspect can affect; matrix rows follow this order.
    pub(crate) reachable: Vec<usize>,
    /// `reachable.len()` rows × `n_patterns` columns of
    /// `Prob(arrival > clk)` with the defect applied.
    pub(crate) err: ProbMatrix,
}

/// The analytic counterpart of [`simulate_fail_masks_batched`]: fills
/// `M_crt` and the per-suspect `E_crt` probability matrices directly by
/// moment propagation ([`sdd_timing::analytic::pattern_fail_probs`]) — zero
/// instance draws, parallelized over patterns. Deterministic: the result
/// depends only on (circuit, timing, defect-size moments, patterns,
/// `clk`), never on `n_samples` or `seed`.
///
/// `quad_points` overrides the Gauss–Hermite order of the die-level
/// integral (`None` = the default 16-point rule): the screened kernel's
/// stage 1 passes [`SCREEN_QUADRATURE_POINTS`] because it ranks rather
/// than estimates. Results at different orders are *not* comparable, so
/// the cache layer keys its analytic banks by the effective order.
///
/// `metrics`, when given, accumulates the wall clock of the analytic
/// parallel region and the number of cone propagations — the
/// analytic counters, *not* the MC `cone_evals`/`kernel_nanos`, which
/// must stay at zero under this kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_fail_probs_analytic(
    circuit: &Circuit,
    timing: &CircuitTiming,
    defect_size: &Dist,
    patterns: &PatternSet,
    cones: &[DefectCone],
    clk: f64,
    quad_points: Option<usize>,
    metrics: Option<&crate::metrics::MetricsSink>,
) -> (ProbMatrix, Vec<AnalyticSuspect>) {
    use sdd_timing::analytic::{pattern_fail_probs, GaussHermite};
    use sdd_timing::block_sta::GaussianArrival;

    let n_out = circuit.primary_outputs().len();
    let n_patterns = patterns.len();
    let quad = match quad_points {
        Some(n) => GaussHermite::for_variation_with(&timing.variation(), n),
        None => GaussHermite::for_variation(&timing.variation()),
    };
    // Censoring-aware defect moments: what the MC kernels' sample_delta
    // actually draws, not the nominal parameters.
    let (delta_mean, delta_var) = defect_size.moments();
    let delta = GaussianArrival {
        mean: delta_mean,
        variance: delta_var,
    };
    let t_kernel = std::time::Instant::now();
    let columns: Vec<(Vec<f64>, Vec<Vec<f64>>)> = patterns
        .patterns()
        .par_iter()
        .map(|p| {
            let transitions = simulate_pair(circuit, &p.v1, &p.v2);
            let r = pattern_fail_probs(circuit, timing, &transitions, cones, delta, clk, &quad);
            if let Some(m) = metrics {
                m.add(Counter::AnalyticEvals, r.cone_walks);
            }
            (r.baseline, r.per_cone)
        })
        .collect();
    // Timed once on the calling thread, like `record_kernel_nanos`.
    if let Some(m) = metrics {
        m.add(Counter::AnalyticNanos, t_kernel.elapsed().as_nanos() as u64);
    }
    let mut m_crt = ProbMatrix::zeros(n_out, n_patterns);
    let mut suspects: Vec<AnalyticSuspect> = cones
        .iter()
        .map(|c| AnalyticSuspect {
            reachable: c.reachable_outputs().to_vec(),
            err: ProbMatrix::zeros(c.reachable_outputs().len(), n_patterns),
        })
        .collect();
    for (j, (baseline, per_cone)) in columns.into_iter().enumerate() {
        for (i, p) in baseline.into_iter().enumerate() {
            m_crt.set(i, j, p);
        }
        for (ci, col) in per_cone.into_iter().enumerate() {
            for (k, p) in col.into_iter().enumerate() {
                suspects[ci].err.set(k, j, p);
            }
        }
    }
    (m_crt, suspects)
}

/// Phase 2 of the analytic build: wrap the probability matrices into a
/// [`ProbabilisticDictionary`]. Pure repackaging — a dictionary
/// assembled from cached analytic matrices is bit-identical to a fresh
/// build. `joint_phi` is always `None` (no per-sample outcomes exist to
/// count).
pub(crate) fn assemble_from_probs(
    clk: f64,
    m_crt: ProbMatrix,
    suspects: Vec<(EdgeId, AnalyticSuspect)>,
) -> ProbabilisticDictionary {
    ProbabilisticDictionary {
        clk,
        m_crt,
        suspects: suspects
            .into_iter()
            .map(|(edge, s)| SuspectSignature {
                edge,
                reachable: s.reachable,
                err: s.err,
                joint: None,
            })
            .collect(),
    }
}

/// Books a Monte-Carlo kernel's parallel region, started at `start`,
/// once on the calling thread. The region nests inside the caller's
/// dictionary phase, so `kernel_nanos ⊆ dictionary_nanos` holds by
/// construction; per-worker times summed over an idle pool would not.
fn record_kernel_nanos(metrics: Option<&crate::metrics::MetricsSink>, start: std::time::Instant) {
    if let Some(m) = metrics {
        m.add(Counter::KernelNanos, start.elapsed().as_nanos() as u64);
    }
}

/// Phase 1 of the dictionary build, the Monte-Carlo production kernel:
/// record, as bit grids, which outputs exceed `clk` for every (pattern,
/// chip sample) — defect-free (baseline) and with a random-size defect
/// on each cone's arc. Returns, per pattern, the baseline grid (samples
/// × all outputs) and one grid per cone (samples × its reachable
/// outputs).
///
/// Per pattern it takes the whole chip-sample batch from
/// [`DictionaryCache::batch`] under `model_fp` (sample-major delay
/// matrix, drawn on demand), runs one batched baseline arrival pass,
/// summarizes its output verdicts ([`BaselineOutputs`]), then runs one
/// pruned [`DefectCone::apply_batch_fused`] walk per sink group covering
/// every member and sample. The walk
/// reports idle and clock-settled members from the baseline summary and
/// recomputes only the cone rows a defect changes.
///
/// Every random quantity uses the same keyed draws as the scalar test
/// oracle (chip sample by `(seed, pattern, sample)`, defect size by
/// `(seed, pattern, sample, arc)`, drawn only for arcs the pattern
/// exercises), and every computed per-sample float operation runs in
/// the same order, so the produced grids are bit-identical to it.
///
/// `metrics`, when given, accumulates the wall clock of the parallel
/// region, the (pattern, sample, suspect) cone evaluations and the
/// (pattern, suspect) pairs that actually walked.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_fail_masks_batched(
    circuit: &Circuit,
    timing: &CircuitTiming,
    defect_size: &Dist,
    patterns: &PatternSet,
    cones: &[DefectCone],
    clk: f64,
    config: DictionaryConfig,
    batches: &DictionaryCache,
    model_fp: u64,
    metrics: Option<&crate::metrics::MetricsSink>,
) -> Vec<(BitGrid, Vec<BitGrid>)> {
    let n = config.n_samples;
    if let Some(m) = metrics {
        m.add(
            Counter::ConeEvals,
            (patterns.len() * n * cones.len()) as u64,
        );
    }
    let groups = sink_groups(circuit, cones);
    let t_kernel = std::time::Instant::now();
    let per_pattern = patterns
        .patterns()
        .par_iter()
        .enumerate()
        .map(|(j, p)| {
            let transitions = simulate_pair(circuit, &p.v1, &p.v2);
            let batch = batches.batch(model_fp, timing, config.seed, (j * n) as u64, n);
            walk_sink_groups(
                circuit,
                &transitions,
                &batch,
                cones,
                &groups,
                clk,
                |ci, sizes| {
                    for (s, d) in sizes.iter_mut().enumerate() {
                        let instance_index = (j * n + s) as u64;
                        *d = sample_delta(
                            config.seed,
                            instance_index,
                            cones[ci].edge(),
                            defect_size,
                        );
                    }
                },
                metrics,
            )
        })
        .collect();
    record_kernel_nanos(metrics, t_kernel);
    per_pattern
}

/// Suspect positions grouped by the sink node of their defective arc.
/// Such suspects share the exact [`sdd_netlist::ConeView`], so one fused
/// walk pays the per-node transition checks, arc dereferences and
/// delay-slice fetches once per group instead of once per suspect.
/// Group order follows first appearance and members keep suspect order.
fn sink_groups(circuit: &Circuit, cones: &[DefectCone]) -> Vec<Vec<usize>> {
    let mut group_of_sink: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (ci, cone) in cones.iter().enumerate() {
        let sink = circuit.edge(cone.edge()).to().index();
        match group_of_sink.get(&sink) {
            Some(&g) => groups[g].push(ci),
            None => {
                group_of_sink.insert(sink, groups.len());
                groups.push(vec![ci]);
            }
        }
    }
    groups
}

/// One pattern of the Monte-Carlo kernels: the baseline arrival pass on
/// `batch`, its output verdicts as the baseline grid (samples × all
/// outputs), then one pruned fused walk per sink group, filling one grid
/// per suspect (samples × its reachable outputs). `draw(ci, sizes)` fills
/// suspect `ci`'s defect size per sample; it runs only for suspects whose
/// arc the pattern exercises. Books the suspects that walked a cone as
/// `cone_walks`.
#[allow(clippy::too_many_arguments)]
fn walk_sink_groups(
    circuit: &Circuit,
    transitions: &[sdd_netlist::logic::Transition],
    batch: &sdd_timing::InstanceBatch,
    cones: &[DefectCone],
    groups: &[Vec<usize>],
    clk: f64,
    mut draw: impl FnMut(usize, &mut [f64]),
    metrics: Option<&crate::metrics::MetricsSink>,
) -> (BitGrid, Vec<BitGrid>) {
    let n = batch.n_samples();
    let n_out = circuit.primary_outputs().len();
    let baseline = transition_arrivals_batch(circuit, transitions, batch);
    let outputs = BaselineOutputs::new(circuit, &baseline, n, clk);
    let mut base = BitGrid::new(n, n_out);
    for i in 0..n_out {
        for &s in outputs.fails(i) {
            base.set(s as usize, i);
        }
    }
    let mut scratch = FusedScratch::default();
    let mut fails: Vec<BitGrid> = cones
        .iter()
        .map(|cone| BitGrid::new(n, cone.reachable_outputs().len()))
        .collect();
    let mut walks = 0;
    for group in groups {
        let members: Vec<&DefectCone> = group.iter().map(|&ci| &cones[ci]).collect();
        walks += DefectCone::apply_batch_fused(
            &members,
            circuit,
            transitions,
            batch,
            &baseline,
            &outputs,
            |g, sizes| draw(group[g], sizes),
            &mut scratch,
            |g, s, k| fails[group[g]].set(s, k),
        );
    }
    if let Some(m) = metrics {
        m.add(Counter::ConeWalks, walks as u64);
    }
    (base, fails)
}

/// The population-consistent refinement kernel of the screened
/// pipeline's stage 2: manufactures **one** virtual chip population
/// (instances `0..n_samples` of the seed's stream) and runs every
/// pattern against that same population, with each chip's defect size
/// drawn once per `(chip, arc)` and held fixed across patterns —
/// exactly how a physical defective chip behaves on a tester, where one
/// delay realization and one defect answer every applied pattern.
///
/// Sharing the population saves chip-sample manufacture: one batch
/// (from [`CircuitTiming::sample_instance_batch`]) is scanned once and
/// each arc's delays are drawn at most once for every pattern, where
/// the batched kernel scans one batch per pattern position and draws
/// in each the arcs its pattern exercises. Since batches draw on demand
/// that saving is modest; manufacture no longer dominates a cold
/// batched build (DESIGN.md §4.4). The price is estimator
/// coupling — `M_crt`/`E_crt` cells stay unbiased with the same
/// per-cell variance, but columns are correlated across patterns — so
/// the grids are **not** bit-identical to the batched kernel's
/// (pattern-independent populations) and must never be checkpointed as
/// batched grids. The rate-equivalence suite in
/// `tests/screened_kernel.rs` pins that diagnosis quality is
/// statistically unchanged.
///
/// Per-(pattern, chip, arc) draws stay keyed, so results are
/// deterministic and thread-count independent like the other kernels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_fail_masks_shared(
    circuit: &Circuit,
    timing: &CircuitTiming,
    defect_size: &Dist,
    patterns: &PatternSet,
    cones: &[DefectCone],
    clk: f64,
    config: DictionaryConfig,
    batches: &DictionaryCache,
    model_fp: u64,
    metrics: Option<&crate::metrics::MetricsSink>,
) -> Vec<(BitGrid, Vec<BitGrid>)> {
    if let Some(m) = metrics {
        m.add(
            Counter::ConeEvals,
            (patterns.len() * config.n_samples * cones.len()) as u64,
        );
    }
    let n = config.n_samples;
    // The shared population: instances 0..n of the seed's stream — the
    // very chips the batched kernel manufactures for pattern position 0,
    // so one memoized batch serves both kernels.
    let batch = batches.batch(model_fp, timing, config.seed, 0, n);
    // One defect size per (chip, arc), shared by every pattern.
    let deltas_of: Vec<Vec<f64>> = cones
        .iter()
        .map(|cone| {
            (0..n)
                .map(|s| sample_delta(config.seed, s as u64, cone.edge(), defect_size))
                .collect()
        })
        .collect();
    let groups = sink_groups(circuit, cones);
    let t_kernel = std::time::Instant::now();
    let per_pattern = patterns
        .patterns()
        .par_iter()
        .map(|p| {
            let transitions = simulate_pair(circuit, &p.v1, &p.v2);
            walk_sink_groups(
                circuit,
                &transitions,
                &batch,
                cones,
                &groups,
                clk,
                |ci, sizes| sizes.copy_from_slice(&deltas_of[ci]),
                metrics,
            )
        })
        .collect();
    record_kernel_nanos(metrics, t_kernel);
    per_pattern
}

/// Phase 2 of the dictionary build: turn fail grids into `M_crt`, per
/// suspect `E_crt` and (against an observed behaviour matrix) the joint
/// consistency estimate. Pure counting — no simulation — so a dictionary
/// assembled from cached grids is bit-identical to a fresh build.
///
/// Works on grid words, not single bits. `M_crt`/`E_crt` cells are
/// per-column set-bit counts. The joint estimate splits into a
/// suspect-independent half, done once per pattern ([`ObservedColumn`]),
/// and a per-suspect test of two word compares per sample. Every count
/// is the same integer the per-bit oracle (`assemble_from_masks_oracle`)
/// produces, so the dictionaries are bit-identical.
///
/// Every grid must have `n_samples` rows and each suspect's `reachable`
/// positions must be distinct; the store's shape check enforces both
/// on loaded banks.
pub(crate) fn assemble_from_masks(
    clk: f64,
    n_out: usize,
    n_samples: usize,
    base: &[&BitGrid],
    suspects: &[(EdgeId, &SuspectMasks)],
    behavior: Option<&crate::BehaviorMatrix>,
) -> ProbabilisticDictionary {
    let n_patterns = base.len();
    let inv_n = 1.0 / n_samples as f64;
    let mut m_crt = ProbMatrix::zeros(n_out, n_patterns);
    let mut counts = vec![0u32; n_out];
    for (j, grid) in base.iter().enumerate() {
        debug_assert_eq!(grid.rows(), n_samples);
        grid.count_columns(&mut counts);
        for (i, &c) in counts.iter().enumerate() {
            m_crt.set(i, j, c as f64 * inv_n);
        }
    }
    let observed: Option<Vec<ObservedColumn>> = behavior.map(|b| {
        base.iter()
            .enumerate()
            .map(|(j, grid)| ObservedColumn::new(b, j, grid))
            .collect()
    });
    let suspects = suspects
        .iter()
        .map(|&(edge, masks)| {
            let reach = masks.reachable.clone();
            let mut err = ProbMatrix::zeros(reach.len(), n_patterns);
            let mut counts = vec![0u32; reach.len()];
            for (j, grid) in masks.fails.iter().enumerate() {
                debug_assert_eq!(grid.rows(), n_samples);
                grid.count_columns(&mut counts);
                for (k, &c) in counts.iter().enumerate() {
                    err.set(k, j, c as f64 * inv_n);
                }
            }
            let joint = observed.as_ref().map(|columns| {
                let mut reach_mask = BitGrid::new(1, n_out);
                for &i in &reach {
                    reach_mask.set(0, i);
                }
                columns
                    .iter()
                    .zip(&masks.fails)
                    .map(|(column, grid)| {
                        column.consistent_samples(grid, &reach, &reach_mask) as f64 * inv_n
                    })
                    .collect()
            });
            SuspectSignature {
                edge,
                reachable: reach,
                err,
                joint,
            }
        })
        .collect();
    ProbabilisticDictionary {
        clk,
        m_crt,
        suspects,
    }
}

/// The suspect-independent half of the joint-consistency test for one
/// pattern `j`: the observed column `B[·, j]` as one row of output
/// words, and each sample's defect-free mismatch `base_row ^ col`.
struct ObservedColumn {
    col: BitGrid,
    mismatch: BitGrid,
}

impl ObservedColumn {
    fn new(behavior: &crate::BehaviorMatrix, j: usize, base: &BitGrid) -> ObservedColumn {
        let mut col = BitGrid::new(1, base.width());
        for i in 0..base.width() {
            if behavior.fails(i, j) {
                col.set(0, i);
            }
        }
        let mismatch = base.xor_each_row(&col);
        ObservedColumn { col, mismatch }
    }

    /// Number of samples whose outcome matches the observed column with
    /// the suspect's defect applied. A sample matches iff its fail row
    /// equals the column gathered in reach order, and every defect-free
    /// mismatch lies inside the reachable set. (Outputs outside the
    /// reach keep their defect-free outcome.)
    fn consistent_samples(&self, fails: &BitGrid, reach: &[usize], reach_mask: &BitGrid) -> u32 {
        let mut want = BitGrid::new(1, reach.len());
        for (k, &i) in reach.iter().enumerate() {
            if self.col.get(0, i) {
                want.set(0, k);
            }
        }
        fails
            .row_words()
            .zip(self.mismatch.row_words())
            .filter(|(fail, mismatch)| {
                *fail == want.words.as_slice()
                    && mismatch
                        .iter()
                        .zip(&reach_mask.words)
                        .all(|(m, r)| m & !r == 0)
            })
            .count() as u32
    }
}

/// The per-bit assembly [`assemble_from_masks`] replaced: the oracle the
/// `differential_assembly_*` tests compare it against.
/// The original per-sample kernel: one full arrival pass plus one
/// [`DefectCone::apply`] walk per (pattern, sample, suspect). Kept as
/// the differential oracle for [`simulate_fail_masks_batched`].
#[cfg(test)]
fn simulate_fail_masks_scalar(
    circuit: &Circuit,
    timing: &CircuitTiming,
    defect_size: &Dist,
    patterns: &PatternSet,
    cones: &[DefectCone],
    clk: f64,
    config: DictionaryConfig,
) -> Vec<(BitGrid, Vec<BitGrid>)> {
    let n_out = circuit.primary_outputs().len();
    let outputs = circuit.primary_outputs();
    patterns
        .patterns()
        .par_iter()
        .enumerate()
        .map(|(j, p)| {
            let transitions = simulate_pair(circuit, &p.v1, &p.v2);
            let mut base = BitGrid::new(config.n_samples, n_out);
            let mut fails: Vec<BitGrid> = cones
                .iter()
                .map(|c| BitGrid::new(config.n_samples, c.reachable_outputs().len()))
                .collect();
            let mut scratch = vec![sdd_timing::dynamic::NO_EVENT; circuit.num_nodes()];
            let mut out_buf: Vec<f64> = Vec::new();
            for s in 0..config.n_samples {
                let instance_index = (j * config.n_samples + s) as u64;
                let instance = timing.sample_instance_indexed(config.seed, instance_index);
                let baseline =
                    sdd_timing::dynamic::transition_arrivals(circuit, &transitions, &instance);
                for (i, &o) in outputs.iter().enumerate() {
                    if baseline[o.index()] > clk {
                        base.set(s, i);
                    }
                }
                for (ci, cone) in cones.iter().enumerate() {
                    let delta = sample_delta(config.seed, instance_index, cone.edge(), defect_size);
                    cone.apply(
                        circuit,
                        &transitions,
                        &instance,
                        &baseline,
                        delta,
                        &mut scratch,
                        &mut out_buf,
                    );
                    for (k, &arr) in out_buf.iter().enumerate() {
                        if arr > clk {
                            fails[ci].set(s, k);
                        }
                    }
                }
            }
            (base, fails)
        })
        .collect()
}

#[cfg(test)]
fn assemble_from_masks_oracle(
    clk: f64,
    n_out: usize,
    n_samples: usize,
    base: &[&BitGrid],
    suspects: &[(EdgeId, &SuspectMasks)],
    behavior: Option<&crate::BehaviorMatrix>,
) -> ProbabilisticDictionary {
    let n_patterns = base.len();
    let inv_n = 1.0 / n_samples as f64;
    let mut m_crt = ProbMatrix::zeros(n_out, n_patterns);
    for (j, grid) in base.iter().enumerate() {
        for i in 0..n_out {
            let mut c = 0u32;
            for s in 0..n_samples {
                if grid.get(s, i) {
                    c += 1;
                }
            }
            m_crt.set(i, j, c as f64 * inv_n);
        }
    }
    let b_cols: Option<Vec<Vec<bool>>> = behavior.map(|b| {
        (0..n_patterns)
            .map(|j| (0..n_out).map(|i| b.fails(i, j)).collect())
            .collect()
    });
    let suspects = suspects
        .iter()
        .map(|&(edge, masks)| {
            let reach = masks.reachable.clone();
            let mut err = ProbMatrix::zeros(reach.len(), n_patterns);
            for (j, grid) in masks.fails.iter().enumerate() {
                for (k, _) in reach.iter().enumerate() {
                    let mut c = 0u32;
                    for s in 0..n_samples {
                        if grid.get(s, k) {
                            c += 1;
                        }
                    }
                    err.set(k, j, c as f64 * inv_n);
                }
            }
            let joint = b_cols.as_ref().map(|cols| {
                (0..n_patterns)
                    .map(|j| {
                        let col = &cols[j];
                        let bgrid = base[j];
                        let sgrid = &masks.fails[j];
                        let mut count = 0u32;
                        for s in 0..n_samples {
                            // A sample matches the observed column iff
                            // every reachable output matches with the
                            // defect applied and every defect-free
                            // mismatch lay inside the reachable set.
                            let mut base_mismatches = 0u32;
                            for (i, &b_i) in col.iter().enumerate().take(n_out) {
                                if bgrid.get(s, i) != b_i {
                                    base_mismatches += 1;
                                }
                            }
                            let mut reach_base_mismatches = 0u32;
                            let mut reach_match = true;
                            for (k, &i) in reach.iter().enumerate() {
                                if bgrid.get(s, i) != col[i] {
                                    reach_base_mismatches += 1;
                                }
                                if sgrid.get(s, k) != col[i] {
                                    reach_match = false;
                                }
                            }
                            if reach_match && base_mismatches == reach_base_mismatches {
                                count += 1;
                            }
                        }
                        count as f64 * inv_n
                    })
                    .collect()
            });
            SuspectSignature {
                edge,
                reachable: reach,
                err,
                joint,
            }
        })
        .collect();
    ProbabilisticDictionary {
        clk,
        m_crt,
        suspects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_atpg::TestPattern;
    use sdd_netlist::{CircuitBuilder, GateKind};
    use sdd_timing::dynamic::transition_arrivals;
    use sdd_timing::{CellLibrary, VariationModel};

    /// Two independent chains sharing nothing:
    /// a -> g1 -> g2 (output 0), b -> h1 (output 1).
    fn two_chains() -> (Circuit, CircuitTiming) {
        let mut b = CircuitBuilder::new("tc");
        let a = b.input("a");
        let bb = b.input("b");
        let g1 = b.gate("g1", GateKind::Not, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
        let h1 = b.gate("h1", GateKind::Not, &[bb]).unwrap();
        b.output(g2);
        b.output(h1);
        let c = b.finish().unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.03, 0.05),
        );
        (c, t)
    }

    fn both_rise() -> PatternSet {
        [TestPattern::new(vec![false, false], vec![true, true])]
            .into_iter()
            .collect()
    }

    #[test]
    fn signature_is_nonnegative_and_bounded() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let clk = 0.25; // between nominal (~0.2) and defective delays
        let dict = ProbabilisticDictionary::build(
            &c,
            &t,
            &Dist::Deterministic(0.2),
            &ps,
            &suspects,
            clk,
            DictionaryConfig {
                n_samples: 100,
                seed: 5,
                ..DictionaryConfig::default()
            },
        );
        assert!(dict.m_crt().is_stochastic());
        for (si, s) in dict.suspects().iter().enumerate() {
            for slot in 0..s.reachable_outputs().len() {
                for j in 0..dict.num_patterns() {
                    let sig = dict.signature(si, slot, j);
                    assert!((0.0..=1.0).contains(&sig), "sig {sig}");
                    assert!(s.err(slot, j) >= dict.m_crt().get(s.reachable_outputs()[slot], j));
                }
            }
        }
    }

    #[test]
    fn defect_on_chain_a_never_flags_output_b() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let dict = ProbabilisticDictionary::build(
            &c,
            &t,
            &Dist::Deterministic(0.5),
            &ps,
            &suspects,
            0.25,
            DictionaryConfig {
                n_samples: 50,
                seed: 1,
                ..DictionaryConfig::default()
            },
        );
        // Arc a->g1 reaches only output 0 (g2).
        let a_edge = c.node(c.find("g1").unwrap()).fanin_edges()[0];
        let si = suspects.iter().position(|&e| e == a_edge).unwrap();
        assert_eq!(dict.suspects()[si].reachable_outputs(), &[0]);
        let col = dict.signature_column(si, 0);
        assert_eq!(col.len(), 2);
        assert_eq!(col[1], 0.0, "unreachable output has zero signature");
    }

    #[test]
    fn large_defect_saturates_signature() {
        let (c, t) = two_chains();
        let ps = both_rise();
        // clk generously above nominal so M_crt ≈ 0, huge defect so E ≈ 1.
        let clk = 0.4;
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let dict = ProbabilisticDictionary::build(
            &c,
            &t,
            &Dist::Deterministic(10.0),
            &ps,
            &suspects,
            clk,
            DictionaryConfig {
                n_samples: 60,
                seed: 2,
                ..DictionaryConfig::default()
            },
        );
        assert!(dict.m_crt().max_entry() < 0.2);
        for (si, s) in dict.suspects().iter().enumerate() {
            for slot in 0..s.reachable_outputs().len() {
                assert!(
                    dict.signature(si, slot, 0) > 0.8,
                    "suspect {si} slot {slot}: {}",
                    dict.signature(si, slot, 0)
                );
            }
        }
    }

    #[test]
    fn zero_defect_gives_zero_signature() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let dict = ProbabilisticDictionary::build(
            &c,
            &t,
            &Dist::Deterministic(0.0),
            &ps,
            &suspects,
            0.25,
            DictionaryConfig {
                n_samples: 40,
                seed: 3,
                ..DictionaryConfig::default()
            },
        );
        for (si, s) in dict.suspects().iter().enumerate() {
            for slot in 0..s.reachable_outputs().len() {
                assert_eq!(dict.signature(si, slot, 0), 0.0);
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let suspects: Vec<EdgeId> = c.edge_ids().take(3).collect();
        let cfg = DictionaryConfig {
            n_samples: 30,
            seed: 9,
            ..DictionaryConfig::default()
        };
        let a = ProbabilisticDictionary::build(
            &c,
            &t,
            &Dist::Deterministic(0.1),
            &ps,
            &suspects,
            0.25,
            cfg,
        );
        let b = ProbabilisticDictionary::build(
            &c,
            &t,
            &Dist::Deterministic(0.1),
            &ps,
            &suspects,
            0.25,
            cfg,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn kernel_oracle_grids_match_batched() {
        // Grid-level differential check: the raw fail masks — baseline
        // and per-suspect — must be bit-identical between the batched
        // kernel and the scalar oracle, on a generated circuit large
        // enough to exercise multi-fanin cones.
        let c = sdd_netlist::generator::generate(&sdd_netlist::generator::GeneratorConfig::small(
            "kern", 17,
        ))
        .unwrap()
        .to_combinational()
        .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.05, 0.08),
        );
        let ps = PatternSet::random(&c, 6, 0xA5);
        let cones: Vec<DefectCone> = c
            .edge_ids()
            .step_by(3)
            .map(|e| DefectCone::new(&c, e))
            .collect();
        assert!(cones.len() >= 4, "want several cones, got {}", cones.len());
        let defect = Dist::Normal {
            mean: 0.2,
            std: 0.08,
        };
        let config = DictionaryConfig {
            n_samples: 37, // odd, not a multiple of the word size
            seed: 0xBEEF,
            ..DictionaryConfig::default()
        };
        // A fixed clock, and one inside the tested-delay spread where
        // the outcomes hinge on the drawn defect sizes.
        let spread = crate::inject::tested_delay_samples(&c, &t, &ps, 100, 1).quantile(0.6);
        for clk in [0.3, spread] {
            let batched = simulate_fail_masks_batched(
                &c,
                &t,
                &defect,
                &ps,
                &cones,
                clk,
                config,
                &DictionaryCache::one_shot(),
                0,
                None,
            );
            let scalar = simulate_fail_masks_scalar(&c, &t, &defect, &ps, &cones, clk, config);
            assert_eq!(batched.len(), scalar.len());
            for (j, ((bb, bf), (sb, sf))) in batched.iter().zip(&scalar).enumerate() {
                assert_eq!(bb, sb, "clk {clk}: baseline grid differs at pattern {j}");
                assert_eq!(bf, sf, "clk {clk}: suspect grids differ at pattern {j}");
            }
        }
    }

    #[test]
    fn kernel_oracle_dictionaries_match_batched_build() {
        // Dictionary-level differential check on two differently shaped
        // generated circuits (a shallow wide one and a deeper one with
        // flip-flop boundaries): a production build must equal the
        // scalar oracle's grids assembled by the same counting, joint
        // consistency estimates included.
        use sdd_netlist::profiles::BenchmarkProfile;
        let shallow = BenchmarkProfile {
            name: "bk-shallow",
            inputs: 9,
            outputs: 7,
            dffs: 0,
            gates: 70,
            depth: 8,
        };
        let deep = BenchmarkProfile {
            name: "bk-deep",
            inputs: 6,
            outputs: 4,
            dffs: 5,
            gates: 90,
            depth: 16,
        };
        for profile in [shallow, deep] {
            let c = sdd_netlist::generator::generate(&profile.to_config(11))
                .unwrap()
                .to_combinational()
                .unwrap();
            let t = CircuitTiming::characterize(
                &c,
                &CellLibrary::default_025um(),
                VariationModel::new(0.04, 0.06),
            );
            let ps = PatternSet::random(&c, 5, 3);
            let suspects: Vec<EdgeId> = c.edge_ids().step_by(2).collect();
            let defect = Dist::Normal {
                mean: 0.15,
                std: 0.05,
            };
            let (clk, n) = (0.3, 45);
            let config = DictionaryConfig::new().with_samples(n).with_seed(0xD1FF);
            let chip = t
                .sample_instance_indexed(9, 0)
                .with_extra_delay(suspects[1], 0.3);
            let behavior = crate::BehaviorMatrix::observe(&c, &ps, &chip, clk);
            let cones = defect_cones(&c, &suspects);
            let grids = simulate_fail_masks_scalar(&c, &t, &defect, &ps, &cones, clk, config);
            let base: Vec<&BitGrid> = grids.iter().map(|(b, _)| b).collect();
            let masks: Vec<SuspectMasks> = cones
                .iter()
                .enumerate()
                .map(|(ci, cone)| SuspectMasks {
                    reachable: cone.reachable_outputs().to_vec(),
                    fails: grids.iter().map(|(_, f)| f[ci].clone()).collect(),
                })
                .collect();
            let pairs: Vec<(EdgeId, &SuspectMasks)> =
                suspects.iter().copied().zip(&masks).collect();
            let n_out = c.primary_outputs().len();
            for behavior in [None, Some(&behavior)] {
                let oracle = assemble_from_masks(clk, n_out, n, &base, &pairs, behavior);
                let built = ProbabilisticDictionary::build_with_behavior(
                    &c, &t, &defect, &ps, &suspects, clk, config, behavior,
                );
                assert_eq!(built, oracle, "{}: dictionaries differ", profile.name);
            }
        }
    }

    #[test]
    fn shared_population_grids_match_per_sample_walks() {
        // The screened pipeline's refinement kernel runs the pruned walk
        // on one shared chip population; every bit must equal a scalar
        // walk of that chip with its one (chip, arc) defect size.
        let c = sdd_netlist::generator::generate(&sdd_netlist::generator::GeneratorConfig::small(
            "shared", 5,
        ))
        .unwrap()
        .to_combinational()
        .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.05, 0.08),
        );
        let ps = PatternSet::random(&c, 5, 0x5A);
        let cones = defect_cones(&c, &c.edge_ids().collect::<Vec<_>>());
        let defect = Dist::Normal {
            mean: 0.2,
            std: 0.08,
        };
        let (n, seed, clk) = (19, 11, 0.3);
        let config = DictionaryConfig {
            n_samples: n,
            seed,
            kernel: SimKernel::Batched,
            screen: ScreenConfig::default(),
        };
        let grids = simulate_fail_masks_shared(
            &c,
            &t,
            &defect,
            &ps,
            &cones,
            clk,
            config,
            &DictionaryCache::one_shot(),
            0,
            None,
        );
        let outputs = c.primary_outputs();
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        for (p, (base, fails)) in ps.patterns().iter().zip(&grids) {
            let trans = simulate_pair(&c, &p.v1, &p.v2);
            for s in 0..n {
                let inst = t.sample_instance_indexed(seed, s as u64);
                let baseline = transition_arrivals(&c, &trans, &inst);
                for (i, o) in outputs.iter().enumerate() {
                    assert_eq!(base.get(s, i), baseline[o.index()] > clk);
                }
                for (cone, grid) in cones.iter().zip(fails) {
                    let delta = sample_delta(seed, s as u64, cone.edge(), &defect);
                    cone.apply(&c, &trans, &inst, &baseline, delta, &mut scratch, &mut out);
                    for (k, &arr) in out.iter().enumerate() {
                        assert_eq!(grid.get(s, k), arr > clk, "arc {} sample {s}", cone.edge());
                    }
                }
            }
        }
    }

    #[test]
    fn cone_walks_count_only_the_pairs_that_walked() {
        let c = sdd_netlist::generator::generate(&sdd_netlist::generator::GeneratorConfig::small(
            "walk", 17,
        ))
        .unwrap()
        .to_combinational()
        .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.05, 0.08),
        );
        let ps = PatternSet::random(&c, 6, 0xA5);
        let cones = defect_cones(&c, &c.edge_ids().collect::<Vec<_>>());
        let defect = Dist::Normal {
            mean: 0.2,
            std: 0.08,
        };
        let m = crate::metrics::MetricsSink::new();
        let config = DictionaryConfig {
            n_samples: 16,
            seed: 3,
            ..DictionaryConfig::default()
        };
        simulate_fail_masks_batched(
            &c,
            &t,
            &defect,
            &ps,
            &cones,
            0.3,
            config,
            &DictionaryCache::one_shot(),
            0,
            Some(&m),
        );
        let snap = m.snapshot(std::time::Duration::ZERO);
        assert_eq!(snap.cone_evals, (ps.len() * 16 * cones.len()) as u64);
        // An unpruned walk visits every (pattern, suspect) pair; the
        // pruned kernel settles most of them from the baseline.
        let pairs = (ps.len() * cones.len()) as u64;
        let pruned = snap.cone_walks;
        assert!(
            pruned > 0 && pruned < pairs,
            "{pruned} of {pairs} pairs walked"
        );
    }

    #[test]
    fn config_without_kernel_field_deserializes_to_batched() {
        // Configs serialized before the kernel flag existed must keep
        // loading (and pick the production default).
        let json = r#"{"n_samples": 42, "seed": 7}"#;
        let cfg: DictionaryConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.n_samples, 42);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.kernel, SimKernel::Batched);
        assert_eq!(cfg.screen, ScreenConfig::default());
        // And the full roundtrip preserves a non-default kernel.
        let analytic = DictionaryConfig::default().with_kernel(SimKernel::Analytic);
        let back: DictionaryConfig =
            serde_json::from_str(&serde_json::to_string(&analytic).unwrap()).unwrap();
        assert_eq!(back, analytic);
    }

    #[test]
    fn config_without_screen_field_deserializes_to_default_screen() {
        // Configs serialized before the screened kernel existed must
        // keep loading, and a non-default screen must roundtrip.
        let json = r#"{"n_samples": 9, "seed": 2, "kernel": "Batched"}"#;
        let cfg: DictionaryConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.screen, ScreenConfig::default());
        let screened = DictionaryConfig::default()
            .with_kernel(SimKernel::Screened)
            .with_screen(ScreenConfig::new().with_top_k(3).with_margin(0.05));
        let back: DictionaryConfig =
            serde_json::from_str(&serde_json::to_string(&screened).unwrap()).unwrap();
        assert_eq!(back, screened);
    }

    #[test]
    fn screen_survivors_applies_top_k_and_margin() {
        use sdd_atpg::TestPattern;
        // A behaviour where output 0 fails: suspects reaching it with a
        // high analytic fail probability score best.
        let (c, t) = two_chains();
        let ps: PatternSet = [TestPattern::new(vec![false, false], vec![true, true])]
            .into_iter()
            .collect();
        let chip = t.sample_instance_indexed(77, 0);
        let g1 = c.find("g1").unwrap();
        let defect_edge = c.node(g1).fanin_edges()[0];
        let defect = crate::defect::InjectedDefect {
            edge: defect_edge,
            delta: 0.8,
        };
        let behavior = crate::BehaviorMatrix::observe(&c, &ps, &defect.apply(&chip), 0.3);
        let edges: Vec<EdgeId> = c.edge_ids().collect();
        let cones: Vec<DefectCone> = edges.iter().map(|&e| DefectCone::new(&c, e)).collect();
        let (m_a, analytic) = simulate_fail_probs_analytic(
            &c,
            &t,
            &Dist::Deterministic(0.8),
            &ps,
            &cones,
            0.3,
            Some(SCREEN_QUADRATURE_POINTS),
            None,
        );
        let pairs: Vec<(EdgeId, &AnalyticSuspect)> =
            edges.iter().copied().zip(analytic.iter()).collect();
        // top_k=1 with zero margin keeps exactly the best scorer(s) at
        // the threshold; a huge margin keeps everyone.
        let tight = screen_survivors(
            &m_a,
            &pairs,
            &behavior,
            &[0],
            ScreenConfig::new().with_top_k(1).with_margin(0.0),
        );
        assert!(!tight.is_empty() && tight.len() < pairs.len(), "{tight:?}");
        let wide = screen_survivors(
            &m_a,
            &pairs,
            &behavior,
            &[0],
            ScreenConfig::new().with_top_k(1).with_margin(2.0),
        );
        assert_eq!(wide.len(), pairs.len(), "a margin ≥ 1 must keep all");
        // top_k ≥ n keeps everyone regardless of margin.
        let all = screen_survivors(
            &m_a,
            &pairs,
            &behavior,
            &[0],
            ScreenConfig::new().with_top_k(pairs.len()).with_margin(0.0),
        );
        assert_eq!(all.len(), pairs.len());
        // Survivors come back in original suspect order.
        assert!(wide.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_patterns_panic() {
        let (c, t) = two_chains();
        ProbabilisticDictionary::build(
            &c,
            &t,
            &Dist::Deterministic(0.1),
            &PatternSet::new(),
            &[],
            0.25,
            DictionaryConfig::default(),
        );
    }

    /// A random assembly input whose joint test takes every branch:
    /// per sample, the defect-free row either equals the observed column
    /// or carries random flips anywhere (inside or outside the reach),
    /// and the fail row either equals the observed reach bits or has one
    /// bit flipped.
    struct AssemblyCase {
        base: Vec<BitGrid>,
        suspects: Vec<(EdgeId, SuspectMasks)>,
        behavior: crate::BehaviorMatrix,
    }

    impl AssemblyCase {
        fn random(
            n_out: usize,
            n_samples: usize,
            n_patterns: usize,
            reaches: &[Vec<usize>],
            seed: u64,
        ) -> AssemblyCase {
            use rand::Rng;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut bits = sdd_atpg::dictionary::BitMatrix::zeros(n_out, n_patterns);
            for i in 0..n_out {
                for j in 0..n_patterns {
                    bits.set(i, j, rng.gen_bool(0.3));
                }
            }
            let behavior = crate::BehaviorMatrix::from_bits(bits, 1.0);
            let flip = 2.0 / n_out as f64;
            let mut base = Vec::new();
            let mut fails: Vec<Vec<BitGrid>> = vec![Vec::new(); reaches.len()];
            for j in 0..n_patterns {
                let mut grid = BitGrid::new(n_samples, n_out);
                for s in 0..n_samples {
                    let anywhere = rng.gen_bool(0.5);
                    for i in 0..n_out {
                        if behavior.fails(i, j) != (anywhere && rng.gen_bool(flip)) {
                            grid.set(s, i);
                        }
                    }
                }
                base.push(grid);
                for (reach, out) in reaches.iter().zip(&mut fails) {
                    let mut grid = BitGrid::new(n_samples, reach.len());
                    for s in 0..n_samples {
                        let flipped = (!reach.is_empty() && rng.gen_bool(0.3))
                            .then(|| rng.gen_range(0..reach.len()));
                        for (k, &i) in reach.iter().enumerate() {
                            if behavior.fails(i, j) != (flipped == Some(k)) {
                                grid.set(s, k);
                            }
                        }
                    }
                    out.push(grid);
                }
            }
            let suspects = reaches
                .iter()
                .zip(fails)
                .enumerate()
                .map(|(e, (reach, fails))| {
                    let masks = SuspectMasks {
                        reachable: reach.clone(),
                        fails,
                    };
                    (EdgeId::from_index(e), masks)
                })
                .collect();
            AssemblyCase {
                base,
                suspects,
                behavior,
            }
        }

        /// Assembles with both implementations and asserts equality;
        /// returns the word-parallel result.
        fn assert_matches_oracle(&self, with_behavior: bool) -> ProbabilisticDictionary {
            let n_out = self.base[0].width();
            let n_samples = self.base[0].rows();
            let base: Vec<&BitGrid> = self.base.iter().collect();
            let suspects: Vec<(EdgeId, &SuspectMasks)> =
                self.suspects.iter().map(|(e, m)| (*e, m)).collect();
            let behavior = with_behavior.then_some(&self.behavior);
            let fast = assemble_from_masks(0.5, n_out, n_samples, &base, &suspects, behavior);
            let oracle =
                assemble_from_masks_oracle(0.5, n_out, n_samples, &base, &suspects, behavior);
            assert_eq!(
                fast, oracle,
                "n_out {n_out}, n_samples {n_samples}, behavior {with_behavior}"
            );
            fast
        }
    }

    /// A random strictly increasing subset of `0..n_out`.
    fn random_reach(rng: &mut ChaCha8Rng, n_out: usize) -> Vec<usize> {
        use rand::Rng;
        let p = rng.gen_range(0.05..=0.9);
        (0..n_out).filter(|_| rng.gen_bool(p)).collect()
    }

    #[test]
    fn differential_assembly_matches_oracle_across_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA55E);
        let (mut consistent, mut inconsistent) = (0usize, 0usize);
        for n_out in [1, 63, 64, 65, 76, 130] {
            for n_samples in [1, 63, 64, 65, 200] {
                let reaches: Vec<Vec<usize>> =
                    (0..4).map(|_| random_reach(&mut rng, n_out)).collect();
                let seed = (n_out * 1000 + n_samples) as u64;
                let case = AssemblyCase::random(n_out, n_samples, 3, &reaches, seed);
                assert!(case.assert_matches_oracle(false).suspects[0]
                    .joint
                    .is_none());
                let dict = case.assert_matches_oracle(true);
                for s in &dict.suspects {
                    for &p in s.joint.as_ref().expect("joint estimate") {
                        consistent += usize::from(p > 0.0);
                        inconsistent += usize::from(p < 1.0);
                    }
                }
            }
        }
        // The random cases must exercise both outcomes of the joint test.
        assert!(consistent > 0 && inconsistent > 0);
    }

    #[test]
    fn differential_assembly_matches_oracle_on_empty_and_full_reach() {
        for n_out in [1, 63, 64, 65, 76, 130] {
            for n_samples in [1, 64, 200] {
                let reaches = vec![Vec::new(), (0..n_out).collect()];
                let seed = (n_out * 7 + n_samples) as u64;
                let case = AssemblyCase::random(n_out, n_samples, 2, &reaches, seed);
                case.assert_matches_oracle(false);
                case.assert_matches_oracle(true);
            }
        }
    }

    #[test]
    fn differential_assembly_matches_oracle_on_simulated_grids() {
        // Real Monte-Carlo grids and a real injected-chip behaviour, on
        // a generated circuit with multi-output cones.
        let c = sdd_netlist::generator::generate(&sdd_netlist::generator::GeneratorConfig::small(
            "asm", 23,
        ))
        .unwrap()
        .to_combinational()
        .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.05, 0.08),
        );
        let ps = PatternSet::random(&c, 5, 0x5EED);
        let edges: Vec<EdgeId> = c.edge_ids().step_by(2).collect();
        let cones: Vec<DefectCone> = edges.iter().map(|&e| DefectCone::new(&c, e)).collect();
        // A clock inside the tested-delay spread, so outcomes vary.
        let clk = crate::inject::tested_delay_samples(&c, &t, &ps, 100, 1).quantile(0.6);
        let config = DictionaryConfig {
            n_samples: 65,
            seed: 0xD1C7,
            ..DictionaryConfig::default()
        };
        let defect = Dist::Normal {
            mean: 0.2,
            std: 0.08,
        };
        let per_pattern = simulate_fail_masks_batched(
            &c,
            &t,
            &defect,
            &ps,
            &cones,
            clk,
            config,
            &DictionaryCache::one_shot(),
            0,
            None,
        );
        let chip = t
            .sample_instance_indexed(5, 0)
            .with_extra_delay(edges[3], 0.3);
        let behavior = crate::BehaviorMatrix::observe(&c, &ps, &chip, clk);
        let base: Vec<&BitGrid> = per_pattern.iter().map(|(b, _)| b).collect();
        let masks: Vec<SuspectMasks> = cones
            .iter()
            .enumerate()
            .map(|(ci, cone)| SuspectMasks {
                reachable: cone.reachable_outputs().to_vec(),
                fails: per_pattern.iter().map(|(_, f)| f[ci].clone()).collect(),
            })
            .collect();
        let suspects: Vec<(EdgeId, &SuspectMasks)> = edges.iter().copied().zip(&masks).collect();
        let n_out = c.primary_outputs().len();
        let mut joints: Vec<f64> = Vec::new();
        for behavior in [None, Some(&behavior)] {
            let fast = assemble_from_masks(clk, n_out, 65, &base, &suspects, behavior);
            let oracle = assemble_from_masks_oracle(clk, n_out, 65, &base, &suspects, behavior);
            assert_eq!(fast, oracle);
            joints.extend(
                fast.suspects
                    .iter()
                    .flat_map(|s| s.joint.iter().flatten().copied()),
            );
        }
        assert!(joints.iter().any(|&p| p > 0.0) && joints.iter().any(|&p| p < 1.0));
    }

    #[test]
    fn grid_from_words_rejects_set_padding_bits() {
        for width in [0usize, 1, 63, 64, 65] {
            let words_per_row = width.div_ceil(64).max(1);
            let clean = vec![0u64; 2 * words_per_row];
            assert!(BitGrid::from_words(width, clean.clone()).is_some());
            if width % 64 != 0 || width == 0 {
                let mut dirty = clean;
                dirty[2 * words_per_row - 1] = 1u64 << (width % 64);
                assert!(
                    BitGrid::from_words(width, dirty).is_none(),
                    "width {width}: padding bit accepted"
                );
            }
        }
    }
}
