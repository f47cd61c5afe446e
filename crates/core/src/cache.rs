//! A campaign-wide cache of dictionary Monte-Carlo outcomes.
//!
//! The signature probability matrix `S_crt = E_crt − M_crt` depends only
//! on (circuit, timing model, pattern set, `clk`, defect-size
//! distribution, Monte-Carlo config) — *not* on the chip under
//! diagnosis. A serial campaign nevertheless re-simulates it for every
//! chip and every redraw attempt. [`DictionaryCache`] shares the work:
//! it stores the raw per-(pattern, sample, suspect) fail *bit grids*
//! (see [`simulate_fail_masks`](crate::dictionary)) keyed on a
//! fingerprint of everything the simulation reads, and assembles
//! per-chip dictionaries from them by pure counting.
//!
//! Storing grids rather than finished dictionaries matters twice over:
//!
//! * the *joint* consistency estimate
//!   ([`SuspectSignature::joint_phi`](crate::dictionary::SuspectSignature::joint_phi))
//!   is chip-specific (it conditions on the observed behaviour matrix),
//!   but is recoverable from the grids without re-simulation;
//! * different chips implicate different suspect subsets — banks
//!   accumulate the union, and each request selects its rows. Because
//!   defect sizes are keyed by suspect *arc* (not list position), a
//!   subset assembled from the bank is bit-identical to a fresh build of
//!   that subset.
//!
//! Both Monte-Carlo kernels write one section of banks. The batched
//! kernel asks for every suspect; the screened kernel asks only for
//! the survivors of an analytic suspect filter. So a screened build
//! reads rows a batched build simulated (and the other way round), and
//! both use the same `.sdds` checkpoints.
//!
//! The cache also memoizes manufactured chip batches
//! ([`sdd_timing::InstanceBatch`]): chip draws are keyed by (timing
//! model, seed, instance index), and one population answers every
//! pattern, so one batch per (model, seed, sample count) serves every
//! chip, clock level, pattern set and kernel. A throwaway cache (the
//! engine behind [`ProbabilisticDictionary::build_with_behavior`])
//! frees its one batch with the cache.
//!
//! Concurrency: every section is a `KeyedMemo` — a
//! `RwLock<HashMap>` from keys to per-key values behind
//! `Arc<Mutex<_>>`. The outer lock is held only to look up or insert a
//! key; the per-key mutex is held across the computation, so concurrent
//! requests for the *same* key block rather than duplicate the
//! Monte-Carlo (or ATPG), while requests for different keys proceed in
//! parallel. A computation that panics poisons only its own key, and
//! the memo then discards that key's value: the next request starts
//! from an empty value and recomputes, instead of panicking on the
//! poisoned lock.
//!
//! Keys are [`StoreKey`]s: stable FNV-1a fingerprints of everything the
//! simulation reads — *including* the circuit and timing model, so one
//! cache (or one long-lived [`crate::session::ArtifactLayer`]) can
//! safely serve many campaigns over different circuits. The same key
//! identifies a checkpoint file in an optional [`DictionaryStore`]:
//! attach one with [`DictionaryCache::with_store`] and banks are loaded
//! from disk instead of simulated when a valid checkpoint exists, and
//! checkpointed in the background whenever simulation extends them.

use crate::dictionary::{
    assemble_from_masks, defect_cones, screen_survivors, simulate_fail_masks,
    simulate_fail_probs_analytic, AnalyticSuspect, BitGrid, DictionaryConfig,
    ProbabilisticDictionary, SimKernel, SuspectMasks,
};
use crate::inject::AtpgConfig;
use crate::metrics::{Counter, MetricsSink};
use crate::store::{fingerprint_model, DictionaryStore, PatternKey, StoreKey};
use crate::BehaviorMatrix;
use sdd_atpg::PatternSet;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::dynamic::DefectCone;
use sdd_timing::{CircuitTiming, Dist, InstanceBatch};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A concurrent get-or-compute memo: one `V` per key, each behind its
/// own mutex (see the module docs for the locking rules and the poison
/// policy). The cache's sections and the artifact layer's design memo
/// ([`crate::session::ArtifactLayer::design`]) are all `KeyedMemo`s.
#[derive(Debug)]
pub(crate) struct KeyedMemo<K, V> {
    slots: RwLock<HashMap<K, Arc<Mutex<V>>>>,
}

impl<K, V> Default for KeyedMemo<K, V> {
    fn default() -> Self {
        KeyedMemo {
            slots: RwLock::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash, V: Default> KeyedMemo<K, V> {
    /// Number of keys inserted so far.
    pub(crate) fn len(&self) -> usize {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Runs `f` on `key`'s value (inserting `V::default()` first if the
    /// key is new) while holding that key's lock. If an earlier `f` on
    /// this key panicked, the value it left is reset to `V::default()`
    /// before `f` sees it.
    pub(crate) fn with<R>(&self, key: K, f: impl FnOnce(&mut V) -> R) -> R {
        // The map lock guards only lookups and inserts of fresh default
        // slots, so a poisoned map is still consistent.
        let slot = {
            let read = self.slots.read().unwrap_or_else(PoisonError::into_inner);
            match read.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    drop(read);
                    let mut write = self.slots.write().unwrap_or_else(PoisonError::into_inner);
                    Arc::clone(write.entry(key).or_default())
                }
            }
        };
        let mut value = slot.lock().unwrap_or_else(|poisoned| {
            let mut value = poisoned.into_inner();
            *value = V::default();
            slot.clear_poison();
            value
        });
        f(&mut value)
    }
}

/// The cached grids for one key: the defect-free baseline plus one bank
/// per suspect arc simulated so far.
#[derive(Debug, Default)]
struct Bank {
    /// One grid per pattern (`n_samples` × all outputs); empty until the
    /// first build against this key.
    base: Vec<BitGrid>,
    suspects: HashMap<EdgeId, SuspectMasks>,
}

impl Bank {
    /// Simulates what this bank lacks for `suspects` — the baseline on
    /// first use, plus every suspect not banked yet — with `simulate`
    /// (given the missing suspects' cones; it returns per pattern the
    /// baseline grid and one grid per cone), and stores the grids.
    /// Records one cache hit, or one miss plus `samples` simulated
    /// samples. Returns whether anything was simulated.
    fn extend(
        &mut self,
        circuit: &Circuit,
        suspects: &[EdgeId],
        samples: u64,
        metrics: Option<&MetricsSink>,
        simulate: impl FnOnce(&[DefectCone]) -> Vec<(BitGrid, Vec<BitGrid>)>,
    ) -> bool {
        let missing: Vec<EdgeId> = suspects
            .iter()
            .copied()
            .filter(|e| !self.suspects.contains_key(e))
            .collect();
        if !self.base.is_empty() && missing.is_empty() {
            if let Some(m) = metrics {
                m.add(Counter::DictCacheHits, 1);
            }
            return false;
        }
        if let Some(m) = metrics {
            m.add(Counter::DictCacheMisses, 1);
            m.add(Counter::SamplesSimulated, samples);
        }
        let cones = defect_cones(circuit, &missing);
        let per_pattern = simulate(&cones);
        let record_base = self.base.is_empty();
        let mut banks: Vec<SuspectMasks> = cones
            .iter()
            .map(|c| SuspectMasks {
                reachable: c.reachable_outputs().to_vec(),
                fails: Vec::with_capacity(per_pattern.len()),
            })
            .collect();
        for (base, fails) in per_pattern {
            if record_base {
                self.base.push(base);
            }
            for (ci, grid) in fails.into_iter().enumerate() {
                banks[ci].fails.push(grid);
            }
        }
        self.suspects.extend(missing.into_iter().zip(banks));
        true
    }

    /// Counts the dictionary of `suspects` (all banked) out of the grids.
    fn assemble(
        &self,
        circuit: &Circuit,
        suspects: &[EdgeId],
        clk: f64,
        n_samples: usize,
        behavior: Option<&BehaviorMatrix>,
    ) -> ProbabilisticDictionary {
        let base_refs: Vec<&BitGrid> = self.base.iter().collect();
        let ordered: Vec<(EdgeId, &SuspectMasks)> =
            suspects.iter().map(|&e| (e, &self.suspects[&e])).collect();
        assemble_from_masks(
            clk,
            circuit.primary_outputs().len(),
            n_samples,
            &base_refs,
            &ordered,
            behavior,
        )
    }
}

/// The screen's cached *analytic* results for one key: probability
/// matrices, not bit grids. Kept in a separate section from the
/// Monte-Carlo [`Bank`]s because [`StoreKey`] is deliberately
/// kernel-blind — analytic matrices are not bit-identical to MC grids
/// and must never satisfy (or pollute) an MC lookup, nor be
/// checkpointed to the on-disk `.sdds` store.
#[derive(Debug)]
struct AnalyticBank {
    /// `M_crt`.
    base: sdd_timing::crit::ProbMatrix,
    suspects: HashMap<EdgeId, AnalyticSuspect>,
}

/// A thread-safe, campaign-wide dictionary cache, optionally backed by
/// an on-disk [`DictionaryStore`]. See the module docs for the sharing,
/// determinism and persistence story.
#[derive(Debug, Default)]
pub struct DictionaryCache {
    banks: KeyedMemo<StoreKey, Bank>,
    /// Per-site ATPG pattern sets, keyed on everything pattern
    /// generation reads ([`PatternKey`]); `None` until the first request
    /// for its key finishes a store load or an ATPG run.
    patterns: KeyedMemo<PatternKey, Option<Arc<PatternSet>>>,
    /// The screen's stage-1 matrices, in their own section (memory-only,
    /// never store-backed; see [`AnalyticBank`]); `None` until the first
    /// screen against its key.
    analytic: KeyedMemo<StoreKey, Option<AnalyticBank>>,
    /// Manufactured chip batches, keyed `(model_fp, seed, n)`:
    /// everything the draw reads, so a memoized batch holds exactly what
    /// resampling would produce. `None` until the first request for its
    /// key. Read only through [`DictionaryCache::batch`].
    batches: KeyedMemo<(u64, u64, u64), Option<Arc<InstanceBatch>>>,
    store: Option<Arc<DictionaryStore>>,
}

impl DictionaryCache {
    /// An empty, memory-only cache.
    pub fn new() -> DictionaryCache {
        DictionaryCache::default()
    }

    /// An empty cache backed by `store`: bank misses first try loading
    /// the key's checkpoint from disk, and every simulation that extends
    /// a bank re-checkpoints it in the background.
    pub fn with_store(store: Arc<DictionaryStore>) -> DictionaryCache {
        DictionaryCache {
            store: Some(store),
            ..DictionaryCache::default()
        }
    }

    /// The backing store, if one is attached.
    pub fn store(&self) -> Option<&Arc<DictionaryStore>> {
        self.store.as_ref()
    }

    /// Number of distinct (model, pattern set, clk, config, defect dist)
    /// keys populated so far.
    pub fn num_keys(&self) -> usize {
        self.banks.len()
    }

    /// Number of distinct (model, site, ATPG config, seed) pattern sets
    /// held so far.
    pub fn num_pattern_keys(&self) -> usize {
        self.patterns.len()
    }

    /// Returns the ATPG patterns through `site`, generating them at most
    /// once per [`PatternKey`] for the cache's lifetime. Patterns depend
    /// only on (circuit, timing model, site, ATPG knobs, seed) — never on
    /// a chip's sampled delays — so every chip and redraw that implicates
    /// the same site shares one
    /// [`patterns_through_site_with`](crate::inject::patterns_through_site_with)
    /// run. Bit-identical to calling it directly.
    ///
    /// With a store attached, a memory miss first tries the key's
    /// `pat-*.sdds` checkpoint (corruption degrades to a recorded miss,
    /// exactly like dictionary banks) and a generated set is
    /// checkpointed in the background.
    ///
    /// `metrics`, when given, receives one pattern-cache hit or miss,
    /// plus store hit/miss/flush counts when a store is attached.
    pub fn patterns_for_site(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        site: EdgeId,
        config: &AtpgConfig,
        seed: u64,
        metrics: Option<&MetricsSink>,
    ) -> Arc<PatternSet> {
        let key = PatternKey {
            model_fp: fingerprint_model(circuit, timing),
            edge: site.index() as u64,
            atpg_fp: config.fingerprint(),
            seed,
        };
        self.patterns.with(key, |slot| {
            if let Some(set) = slot {
                if let Some(m) = metrics {
                    m.add(Counter::PatternCacheHits, 1);
                }
                return Arc::clone(set);
            }
            if let Some(m) = metrics {
                m.add(Counter::PatternCacheMisses, 1);
            }
            let loaded = self
                .store
                .as_ref()
                .and_then(|s| s.load_patterns(&key, circuit.primary_inputs().len(), metrics));
            let set = Arc::new(match loaded {
                Some(set) => set,
                None => {
                    let set = crate::inject::patterns_through_site_with(
                        circuit,
                        timing,
                        site,
                        config.n_paths,
                        config.max_patterns,
                        seed,
                        config.path_config,
                        config.podem_config,
                    );
                    if let Some(store) = &self.store {
                        store.flush_patterns(&key, &set, metrics);
                    }
                    set
                }
            });
            *slot = Some(Arc::clone(&set));
            set
        })
    }

    /// The chip instances `0..n` of stream `seed` under the timing model
    /// fingerprinted `model_fp` ([`CircuitTiming::sample_instance_batch`]),
    /// memoized for the cache's lifetime. The draws are keyed per index
    /// and never depend on pattern content, `clk` or a chip's delays, so
    /// every chip, clock level, pattern set and kernel that reads the
    /// same population shares one batch, and a hit holds the exact
    /// values resampling would produce: memoizing never changes a bit of
    /// any result.
    pub(crate) fn batch(
        &self,
        model_fp: u64,
        timing: &CircuitTiming,
        seed: u64,
        n: usize,
    ) -> Arc<InstanceBatch> {
        self.batches.with((model_fp, seed, n as u64), |slot| {
            Arc::clone(
                slot.get_or_insert_with(|| Arc::new(timing.sample_instance_batch(seed, 0, n))),
            )
        })
    }

    /// Builds a dictionary through the cache: simulates only the
    /// (baseline, suspect) grids missing under this key, then assembles
    /// the result by counting. The result is bit-identical to a build
    /// through a fresh cache: grids and chip batches are keyed draws,
    /// so what the cache already holds changes only the work done.
    /// Under [`SimKernel::Screened`] the suspects are first filtered by
    /// the analytic screen (when a behaviour is given) and the build
    /// runs on the survivors.
    ///
    /// `metrics`, when given, receives one cache hit (nothing simulated)
    /// or miss, and on a miss `patterns × n_samples` simulated samples
    /// (every pattern of one chip population), whichever kernel asked.
    ///
    /// # Panics
    ///
    /// Same conditions as
    /// [`ProbabilisticDictionary::build_with_behavior`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_behavior(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        suspect_edges: &[EdgeId],
        clk: f64,
        config: DictionaryConfig,
        behavior: Option<&BehaviorMatrix>,
        metrics: Option<&MetricsSink>,
    ) -> ProbabilisticDictionary {
        assert!(
            config.n_samples > 0,
            "monte-carlo sample count must be positive"
        );
        assert!(!patterns.is_empty(), "pattern set must be non-empty");
        if let Some(b) = behavior {
            assert_eq!(
                b.num_outputs(),
                circuit.primary_outputs().len(),
                "behavior/output count mismatch"
            );
            assert_eq!(
                b.num_patterns(),
                patterns.len(),
                "behavior/pattern count mismatch"
            );
        }
        // One O(edges) model hash per build keys every section and chip
        // batch the build touches.
        let model_fp = fingerprint_model(circuit, timing);
        let requested = suspect_edges.len() as u64;
        let survivors: Vec<EdgeId>;
        let suspect_edges = match (config.kernel, behavior) {
            (SimKernel::Screened, Some(b)) => {
                survivors = self.screen(
                    model_fp,
                    circuit,
                    timing,
                    defect_size,
                    patterns,
                    suspect_edges,
                    clk,
                    config,
                    b,
                    metrics,
                );
                &survivors
            }
            _ => suspect_edges,
        };
        if let (SimKernel::Screened, Some(m)) = (config.kernel, metrics) {
            m.add(Counter::SuspectsScreened, requested);
            m.add(Counter::SuspectsRefined, suspect_edges.len() as u64);
        }
        let key = StoreKey::for_model(model_fp, defect_size, patterns, clk, config);
        self.banks.with(key, |bank| {
            // A never-touched bank may have a checkpoint on disk from an
            // earlier run; a load replaces the entire Monte-Carlo phase.
            if bank.base.is_empty() {
                if let Some(store) = &self.store {
                    if let Some(loaded) = store.load(
                        &key,
                        patterns.len(),
                        circuit.primary_outputs().len(),
                        metrics,
                    ) {
                        bank.base = loaded.base;
                        bank.suspects = loaded.suspects.into_iter().collect();
                    }
                }
            }
            let samples = (patterns.len() * config.n_samples) as u64;
            let simulated = bank.extend(circuit, suspect_edges, samples, metrics, |cones| {
                simulate_fail_masks(
                    circuit,
                    timing,
                    defect_size,
                    patterns,
                    cones,
                    clk,
                    config,
                    self,
                    model_fp,
                    metrics,
                )
            });
            if simulated {
                if let Some(store) = &self.store {
                    // Checkpoint the grown bank (serialization happens
                    // and the temp-file write happen here, under the
                    // bank lock, so the snapshot is consistent; only the
                    // fsync and rename run in the background). Suspects
                    // go out in arc order so byte output is
                    // deterministic.
                    let mut sorted: Vec<(EdgeId, &SuspectMasks)> =
                        bank.suspects.iter().map(|(e, m)| (*e, m)).collect();
                    sorted.sort_by_key(|(e, _)| e.index());
                    store.flush(&key, &bank.base, &sorted, metrics);
                }
            }
            bank.assemble(circuit, suspect_edges, clk, config.n_samples, behavior)
        })
    }

    /// The suspect filter of [`SimKernel::Screened`]: scores **all**
    /// requested suspects by analytic moment propagation at the coarse
    /// screening quadrature
    /// ([`SCREEN_QUADRATURE_POINTS`](crate::SCREEN_QUADRATURE_POINTS))
    /// on the failing-richest behaviour columns (the
    /// [`ScreenConfig::screen_patterns`](crate::ScreenConfig) budget),
    /// and returns the top-K survivors plus margin, in request order.
    ///
    /// The chip-independent matrices (`M_crt` plus one
    /// [`AnalyticSuspect`] per edge) live in the memory-only analytic
    /// section: computed once per key, extended by the suspects it
    /// lacks, and scored in place, so they are reused across chips,
    /// redraws and tenants without a copy. Books the screen's wall
    /// clock, but no cache hit or miss: a screened build books only its
    /// Monte-Carlo bank's lookup, so each build books one.
    #[allow(clippy::too_many_arguments)]
    fn screen(
        &self,
        model_fp: u64,
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_size: &Dist,
        patterns: &PatternSet,
        suspect_edges: &[EdgeId],
        clk: f64,
        config: DictionaryConfig,
        behavior: &BehaviorMatrix,
        metrics: Option<&MetricsSink>,
    ) -> Vec<EdgeId> {
        let t_screen = std::time::Instant::now();
        let cols =
            crate::dictionary::screen_pattern_columns(behavior, config.screen.screen_patterns);
        let screen_patterns: PatternSet = cols
            .iter()
            .map(|&j| patterns.patterns()[j].clone())
            .collect();
        let key = StoreKey::for_model(model_fp, defect_size, &screen_patterns, clk, config);
        let survivors = self.analytic.with(key, |slot| {
            let missing: Vec<EdgeId> = suspect_edges
                .iter()
                .copied()
                .filter(|e| !slot.as_ref().is_some_and(|b| b.suspects.contains_key(e)))
                .collect();
            let bank = match slot {
                Some(bank) if missing.is_empty() => bank,
                _ => {
                    let cones = defect_cones(circuit, &missing);
                    let (base, fresh) = simulate_fail_probs_analytic(
                        circuit,
                        timing,
                        defect_size,
                        &screen_patterns,
                        &cones,
                        clk,
                        metrics,
                    );
                    let bank = slot.get_or_insert_with(|| AnalyticBank {
                        base,
                        suspects: HashMap::new(),
                    });
                    bank.suspects.extend(missing.into_iter().zip(fresh));
                    bank
                }
            };
            let pairs: Vec<(EdgeId, &AnalyticSuspect)> = suspect_edges
                .iter()
                .map(|&e| (e, &bank.suspects[&e]))
                .collect();
            screen_survivors(&bank.base, &pairs, behavior, &cols, config.screen)
        });
        if let Some(m) = metrics {
            m.add(Counter::ScreenNanos, t_screen.elapsed().as_nanos() as u64);
        }
        survivors.iter().map(|&i| suspect_edges[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::InjectedDefect;
    use crate::diagnoser::{Diagnoser, DiagnoserConfig};
    use sdd_atpg::TestPattern;
    use sdd_netlist::{CircuitBuilder, GateKind};
    use sdd_timing::{CellLibrary, VariationModel};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn two_chains() -> (Circuit, CircuitTiming) {
        let mut b = CircuitBuilder::new("tc");
        let a = b.input("a");
        let bb = b.input("b");
        let g1 = b.gate("g1", GateKind::Not, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
        let h1 = b.gate("h1", GateKind::Not, &[bb]).unwrap();
        let h2 = b.gate("h2", GateKind::Not, &[h1]).unwrap();
        b.output(g2);
        b.output(h2);
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

    fn failing_behavior(c: &Circuit, t: &CircuitTiming, ps: &PatternSet) -> (BehaviorMatrix, f64) {
        let sta = sdd_timing::sta::static_mc(c, t, 200, 1).expect("static MC runs");
        let clk = sta.clock_at_quantile(0.99) * 1.05;
        let chip = t.sample_instance_indexed(77, 0);
        let defect = InjectedDefect {
            edge: c.node(c.find("g1").unwrap()).fanin_edges()[0],
            delta: 0.8,
        };
        (
            BehaviorMatrix::observe(c, ps, &defect.apply(&chip), clk),
            clk,
        )
    }

    fn config() -> DictionaryConfig {
        DictionaryConfig {
            n_samples: 60,
            seed: 12,
            ..DictionaryConfig::default()
        }
    }

    #[test]
    fn cached_build_is_bit_identical_to_fresh() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let size = Dist::defect_size(0.4);
        let clk = behavior.clk();
        for kernel in [SimKernel::Batched, SimKernel::Screened] {
            let config = config().with_kernel(kernel);
            let fresh = ProbabilisticDictionary::build_with_behavior(
                &c,
                &t,
                &size,
                &ps,
                &suspects,
                clk,
                config,
                Some(&behavior),
            );
            let cache = DictionaryCache::new();
            let metrics = MetricsSink::new();
            let build = || {
                cache.build_with_behavior(
                    &c,
                    &t,
                    &size,
                    &ps,
                    &suspects,
                    clk,
                    config,
                    Some(&behavior),
                    Some(&metrics),
                )
            };
            // First pass simulates, second is served entirely from the
            // cache's sections.
            let first = build();
            let cold = metrics.snapshot(Duration::ZERO);
            let second = build();
            let warm = metrics.snapshot(Duration::ZERO);
            assert_eq!(fresh, first, "{kernel:?}: cold cached build diverged");
            assert_eq!(fresh, second, "{kernel:?}: warm cached build diverged");
            assert!(cold.dict_cache_misses > 0, "{kernel:?}");
            assert_eq!(cold.dict_cache_hits, 0, "{kernel:?}");
            assert_eq!(warm.dict_cache_misses, cold.dict_cache_misses, "{kernel:?}");
            assert_eq!(warm.dict_cache_hits, cold.dict_cache_misses, "{kernel:?}");
            assert_eq!(cache.num_keys(), 1, "{kernel:?}");
        }
    }

    fn two_patterns() -> PatternSet {
        [
            TestPattern::new(vec![false, false], vec![true, true]),
            TestPattern::new(vec![true, true], vec![false, false]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn long_lived_cache_holds_one_chip_batch_per_population() {
        // One chip population answers every pattern, clock and kernel:
        // a long-lived cache keeps exactly one batch per (model, seed,
        // sample count), however many builds read it.
        let (c, t) = two_chains();
        let ps = two_patterns();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let size = Dist::defect_size(0.4);
        let cache = DictionaryCache::new();
        let build = |config: DictionaryConfig, clk: f64| {
            cache.build_with_behavior(
                &c,
                &t,
                &size,
                &ps,
                &suspects,
                clk,
                config,
                Some(&behavior),
                None,
            )
        };
        for kernel in [SimKernel::Batched, SimKernel::Screened] {
            build(config().with_kernel(kernel), behavior.clk());
            build(config().with_kernel(kernel), behavior.clk() * 1.1);
        }
        assert_eq!(cache.batches.len(), 1, "one population, one batch");
        build(config().with_samples(30), behavior.clk());
        build(config().with_seed(13), behavior.clk());
        assert_eq!(cache.batches.len(), 3, "a batch per (seed, n)");
        assert_eq!(cache.num_keys(), 4);
    }

    #[test]
    fn screened_build_equals_unscreened_build_restricted_to_survivors() {
        // The screen is a filter in front of the same bank: every
        // surviving signature, M_crt and the joint estimates equal the
        // unscreened dictionary's rows for those arcs, bit for bit.
        let c = sdd_netlist::generator::generate(&sdd_netlist::generator::GeneratorConfig::small(
            "filter", 17,
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
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let clk = crate::inject::tested_delay_samples(&c, &t, &ps, 100, 1).quantile(0.6);
        let chip = t
            .sample_instance_indexed(3, 0)
            .with_extra_delay(suspects[5], 0.4);
        let behavior = BehaviorMatrix::observe(&c, &ps, &chip, clk);
        let size = Dist::defect_size(0.4);
        let screen = crate::ScreenConfig::new().with_top_k(3).with_margin(0.0);
        let build = |kernel| {
            ProbabilisticDictionary::build_with_behavior(
                &c,
                &t,
                &size,
                &ps,
                &suspects,
                clk,
                config().with_kernel(kernel).with_screen(screen),
                Some(&behavior),
            )
        };
        let screened = build(SimKernel::Screened);
        let full = build(SimKernel::Batched);
        let (kept, all) = (screened.suspects(), full.suspects());
        assert!(
            !kept.is_empty() && kept.len() < all.len(),
            "the screen must prune: {} of {}",
            kept.len(),
            all.len()
        );
        let restricted: Vec<_> = all
            .iter()
            .filter(|s| kept.iter().any(|k| k.edge() == s.edge()))
            .collect();
        assert_eq!(kept.iter().collect::<Vec<_>>(), restricted);
        assert_eq!(screened.m_crt(), full.m_crt());
        assert_eq!(screened.clk(), full.clk());
    }

    #[test]
    fn screened_build_without_behavior_screens_nothing() {
        // With no behaviour to score against, every suspect survives
        // and is booked as screened and refined; the build is the
        // batched one.
        let (c, t) = two_chains();
        let ps = two_patterns();
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let size = Dist::defect_size(0.4);
        let metrics = MetricsSink::new();
        let build = |kernel, metrics| {
            DictionaryCache::new().build_with_behavior(
                &c,
                &t,
                &size,
                &ps,
                &suspects,
                0.25,
                config().with_kernel(kernel),
                None,
                metrics,
            )
        };
        let screened = build(SimKernel::Screened, Some(&metrics));
        assert_eq!(screened, build(SimKernel::Batched, None));
        let snap = metrics.snapshot(Duration::ZERO);
        assert_eq!(snap.suspects_screened, suspects.len() as u64);
        assert_eq!(snap.suspects_refined, suspects.len() as u64);
    }

    #[test]
    fn screened_and_batched_misses_book_equal_samples() {
        // A miss books patterns × n_samples simulated samples whichever
        // kernel asked: a screened build and a batched build of its
        // survivors do the same Monte-Carlo work, and each books one
        // miss (the screen's analytic lookup books none). Only the
        // screen's stage 1 books the analytic counters.
        let (c, t) = two_chains();
        let ps = two_patterns();
        let (behavior, clk) = failing_behavior(&c, &t, &ps);
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let size = Dist::defect_size(0.4);
        let build = |kernel, suspects: &[EdgeId]| {
            let metrics = MetricsSink::new();
            let dict = DictionaryCache::new().build_with_behavior(
                &c,
                &t,
                &size,
                &ps,
                suspects,
                clk,
                config()
                    .with_kernel(kernel)
                    .with_screen(crate::ScreenConfig::new().with_top_k(1).with_margin(0.0)),
                Some(&behavior),
                Some(&metrics),
            );
            (dict, metrics.snapshot(Duration::ZERO))
        };
        let (screened, s) = build(SimKernel::Screened, &suspects);
        let survivors: Vec<EdgeId> = screened.suspects().iter().map(|s| s.edge()).collect();
        assert!(survivors.len() < suspects.len(), "nothing pruned");
        let (batched, b) = build(SimKernel::Batched, &survivors);
        assert_eq!(screened, batched);
        assert_eq!(s.samples_simulated, (ps.len() * config().n_samples) as u64);
        let booked = |m: &crate::metrics::CampaignMetrics| {
            (m.samples_simulated, m.dict_cache_misses, m.cone_evals)
        };
        assert_eq!(booked(&s), (120, 1, 240));
        assert_eq!(booked(&s), booked(&b));
        assert!(s.analytic_evals > 0 && s.analytic_nanos > 0, "{s:?}");
        assert_eq!((b.analytic_evals, b.analytic_nanos), (0, 0), "{b:?}");
    }

    #[test]
    fn subset_from_superset_bank_matches_fresh_subset_build() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let all: Vec<EdgeId> = c.edge_ids().collect();
        let subset: Vec<EdgeId> = all.iter().copied().take(3).collect();
        let size = Dist::defect_size(0.4);
        let clk = behavior.clk();
        let cache = DictionaryCache::new();
        // Populate the bank with the full suspect set, then request a
        // subset: rows must equal a fresh build of just that subset.
        cache.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &all,
            clk,
            config(),
            Some(&behavior),
            None,
        );
        let from_cache = cache.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &subset,
            clk,
            config(),
            Some(&behavior),
            None,
        );
        let fresh = ProbabilisticDictionary::build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &subset,
            clk,
            config(),
            Some(&behavior),
        );
        assert_eq!(fresh, from_cache);
    }

    #[test]
    fn incremental_suspects_extend_the_bank() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let all: Vec<EdgeId> = c.edge_ids().collect();
        let first_half = &all[..all.len() / 2];
        let size = Dist::defect_size(0.4);
        let cache = DictionaryCache::new();
        let metrics = MetricsSink::new();
        cache.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            first_half,
            0.25,
            config(),
            None,
            Some(&metrics),
        );
        // New suspects under the same key: a miss (partial simulation),
        // but the result still matches a fresh build.
        let extended = cache.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &all,
            0.25,
            config(),
            None,
            Some(&metrics),
        );
        let fresh = ProbabilisticDictionary::build(&c, &t, &size, &ps, &all, 0.25, config());
        assert_eq!(fresh, extended);
        assert_eq!(metrics.snapshot(Duration::ZERO).dict_cache_misses, 2);
    }

    #[test]
    fn distinct_clk_or_patterns_get_distinct_keys() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let suspects: Vec<EdgeId> = c.edge_ids().take(2).collect();
        let size = Dist::defect_size(0.4);
        let cache = DictionaryCache::new();
        cache.build_with_behavior(&c, &t, &size, &ps, &suspects, 0.25, config(), None, None);
        cache.build_with_behavior(&c, &t, &size, &ps, &suspects, 0.30, config(), None, None);
        let other: PatternSet = [TestPattern::new(vec![true, true], vec![false, false])]
            .into_iter()
            .collect();
        cache.build_with_behavior(&c, &t, &size, &other, &suspects, 0.25, config(), None, None);
        assert_eq!(cache.num_keys(), 3);
    }

    #[test]
    fn store_backed_cache_reloads_banks_across_cache_lifetimes() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let size = Dist::defect_size(0.4);
        let clk = behavior.clk();
        let dir = crate::testutil::TestDir::new("cache-store");

        let store = Arc::new(crate::store::DictionaryStore::open(dir.path()).unwrap());
        let warm = DictionaryCache::with_store(Arc::clone(&store));
        let m1 = MetricsSink::new();
        let first = warm.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &suspects,
            clk,
            config(),
            Some(&behavior),
            Some(&m1),
        );
        drop(warm);
        store.sync();
        let s1 = m1.snapshot(Duration::ZERO);
        assert_eq!(s1.store_misses, 1, "cold run misses the store");
        assert_eq!(s1.store_flushes, 1, "cold run checkpoints its bank");

        // A brand-new cache over the same directory: the Monte-Carlo
        // phase is replaced entirely by the checkpoint load.
        let cold = DictionaryCache::with_store(Arc::new(
            crate::store::DictionaryStore::open(dir.path()).unwrap(),
        ));
        let m2 = MetricsSink::new();
        let second = cold.build_with_behavior(
            &c,
            &t,
            &size,
            &ps,
            &suspects,
            clk,
            config(),
            Some(&behavior),
            Some(&m2),
        );
        assert_eq!(first, second, "loaded bank diverged from simulated bank");
        let s2 = m2.snapshot(Duration::ZERO);
        assert_eq!(s2.store_hits, 1, "warm run loads from disk");
        assert_eq!(s2.samples_simulated, 0, "warm run simulates nothing");
    }

    /// Overwrites the format version word of the checkpoint at `path`.
    /// The word sits in the unchecksummed header, so the rest of the
    /// file stays valid.
    fn stamp_version(path: &std::path::Path, version: u32) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn v1_dictionary_checkpoint_is_a_miss_then_recomputed() {
        // Version-1 banks hold grids of the retired per-pattern draw
        // scheme: a load must reject them (a recorded store miss), and
        // the recomputed bank replaces the file.
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, clk) = failing_behavior(&c, &t, &ps);
        let suspects: Vec<EdgeId> = c.edge_ids().collect();
        let size = Dist::defect_size(0.4);
        let dir = crate::testutil::TestDir::new("cache-v1-dict");
        let build = |metrics: &MetricsSink| {
            let store = Arc::new(crate::store::DictionaryStore::open(dir.path()).unwrap());
            let cache = DictionaryCache::with_store(Arc::clone(&store));
            let dict = cache.build_with_behavior(
                &c,
                &t,
                &size,
                &ps,
                &suspects,
                clk,
                config(),
                Some(&behavior),
                Some(metrics),
            );
            store.sync();
            dict
        };
        let first = build(&MetricsSink::new());
        let key = StoreKey::compute(&c, &t, &size, &ps, clk, config());
        let path = dir.path().join(key.file_name());
        stamp_version(&path, 1);
        let m = MetricsSink::new();
        assert_eq!(build(&m), first, "recomputed bank diverged");
        let snap = m.snapshot(Duration::ZERO);
        assert_eq!(
            (snap.store_hits, snap.store_misses),
            (0, 1),
            "v1 bank loaded"
        );
        assert!(snap.samples_simulated > 0, "nothing recomputed");
        assert_eq!(snap.store_flushes, 1, "recomputed bank not re-checkpointed");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            bytes[8..12],
            crate::format::DICTIONARY_FORMAT_VERSION.to_le_bytes()
        );
    }

    #[test]
    fn v1_pattern_checkpoint_still_loads() {
        // Pattern checkpoints are versioned apart from dictionary banks:
        // their contents did not change, so version-1 files keep loading
        // and an existing store does not re-run ATPG.
        let (c, t) = two_chains();
        let atpg = AtpgConfig {
            n_paths: 2,
            max_patterns: 4,
            path_config: sdd_atpg::podem::PodemConfig::bulk(),
            podem_config: sdd_atpg::podem::PodemConfig::bulk(),
        };
        let site = c.edge_ids().next().unwrap();
        let dir = crate::testutil::TestDir::new("cache-v1-pat");
        let cache = || {
            DictionaryCache::with_store(Arc::new(
                crate::store::DictionaryStore::open(dir.path()).unwrap(),
            ))
        };
        let generated = {
            let cold = cache();
            let set = cold.patterns_for_site(&c, &t, site, &atpg, 5, None);
            cold.store().unwrap().sync();
            set
        };
        let key = PatternKey {
            model_fp: fingerprint_model(&c, &t),
            edge: site.index() as u64,
            atpg_fp: atpg.fingerprint(),
            seed: 5,
        };
        let path = dir.path().join(key.file_name());
        stamp_version(&path, 1);
        let m = MetricsSink::new();
        let loaded = cache().patterns_for_site(&c, &t, site, &atpg, 5, Some(&m));
        assert_eq!(loaded, generated);
        let snap = m.snapshot(Duration::ZERO);
        assert_eq!((snap.pattern_store_hits, snap.pattern_store_misses), (1, 0));
    }

    #[test]
    fn pattern_cache_serves_memory_then_store_then_generates() {
        let c = sdd_netlist::generator::generate(&sdd_netlist::generator::GeneratorConfig::small(
            "patcache", 17,
        ))
        .unwrap()
        .to_combinational()
        .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.03, 0.05),
        );
        let atpg = AtpgConfig {
            n_paths: 3,
            max_patterns: 8,
            path_config: sdd_atpg::podem::PodemConfig::bulk(),
            podem_config: sdd_atpg::podem::PodemConfig::bulk(),
        };
        let site = c.edge_ids().nth(4).unwrap();
        let fresh = crate::inject::patterns_through_site_with(
            &c,
            &t,
            site,
            atpg.n_paths,
            atpg.max_patterns,
            5,
            atpg.path_config,
            atpg.podem_config,
        );

        let dir = crate::testutil::TestDir::new("pattern-cache");
        let store = Arc::new(crate::store::DictionaryStore::open(dir.path()).unwrap());
        let cache = DictionaryCache::with_store(Arc::clone(&store));
        let m = MetricsSink::new();
        let first = cache.patterns_for_site(&c, &t, site, &atpg, 5, Some(&m));
        assert_eq!(*first, fresh, "cached generation diverged from direct call");
        let second = cache.patterns_for_site(&c, &t, site, &atpg, 5, Some(&m));
        assert!(Arc::ptr_eq(&first, &second), "memory hit re-generated");
        let snap = m.snapshot(Duration::ZERO);
        assert_eq!(snap.pattern_cache_misses, 1);
        assert_eq!(snap.pattern_cache_hits, 1);
        assert_eq!(snap.pattern_store_misses, 1, "cold store probed once");
        assert_eq!(snap.pattern_store_flushes, 1);
        assert_eq!(cache.num_pattern_keys(), 1);
        drop(cache);
        store.sync();

        // A brand-new cache over the same directory loads the checkpoint
        // instead of re-running ATPG.
        let cold = DictionaryCache::with_store(Arc::new(
            crate::store::DictionaryStore::open(dir.path()).unwrap(),
        ));
        let m2 = MetricsSink::new();
        let reloaded = cold.patterns_for_site(&c, &t, site, &atpg, 5, Some(&m2));
        assert_eq!(*reloaded, fresh, "stored patterns diverged");
        let snap2 = m2.snapshot(Duration::ZERO);
        assert_eq!(snap2.pattern_store_hits, 1, "warm run loads from disk");
        assert_eq!(
            snap2.pattern_store_flushes, 0,
            "a loaded set is not re-flushed"
        );

        // A different seed or site is a distinct key.
        cold.patterns_for_site(&c, &t, site, &atpg, 6, None);
        assert_eq!(cold.num_pattern_keys(), 2);
    }

    #[test]
    fn cached_rankings_match_fresh_rankings() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let (behavior, _) = failing_behavior(&c, &t, &ps);
        let d = Diagnoser::new(
            &c,
            &t,
            &ps,
            Dist::defect_size(0.8),
            DiagnoserConfig {
                dictionary: config(),
            },
        );
        let fresh = d.diagnose_all(&behavior).unwrap();
        let cache = DictionaryCache::new();
        let cached_diagnoser = d.clone().with_cache(&cache);
        for _ in 0..2 {
            let cached = cached_diagnoser.diagnose_all(&behavior).unwrap();
            assert_eq!(fresh.len(), cached.len());
            for ((ff, fr), (cf, cr)) in fresh.iter().zip(&cached) {
                assert_eq!(ff, cf);
                assert_eq!(fr, cr, "{} ranking diverged through the cache", ff.name());
            }
        }
    }

    #[test]
    fn keyed_memo_discards_a_poisoned_key_and_keeps_the_others() {
        let memo: KeyedMemo<u32, Vec<u32>> = KeyedMemo::default();
        memo.with(1, |v| v.push(10));
        memo.with(2, |v| v.push(20));
        let crashed = std::thread::scope(|s| {
            s.spawn(|| {
                memo.with(1, |v| {
                    v.push(11);
                    panic!("computation for key 1 fails halfway");
                })
            })
            .join()
        });
        assert!(crashed.is_err(), "the closure should have panicked");
        // The half-built value is gone: the next caller starts from a
        // fresh default and recomputes; the lock is usable again.
        let seen = memo.with(1, |v| {
            let seen = v.clone();
            v.push(12);
            seen
        });
        assert!(seen.is_empty(), "poisoned value survived: {seen:?}");
        assert_eq!(memo.with(1, |v| v.clone()), vec![12]);
        assert_eq!(memo.with(2, |v| v.clone()), vec![20], "other key lost");
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn keyed_memo_racing_callers_compute_a_key_once() {
        const CALLERS: usize = 8;
        let memo: KeyedMemo<u32, Option<u64>> = KeyedMemo::default();
        let runs = AtomicUsize::new(0);
        let arrived = AtomicUsize::new(0);
        let answers: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        memo.with(7, |slot| {
                            *slot.get_or_insert_with(|| {
                                runs.fetch_add(1, Ordering::SeqCst);
                                // Compute only once every caller has
                                // arrived, so all of them race on the key
                                // while its value is being computed.
                                while arrived.load(Ordering::SeqCst) < CALLERS {
                                    std::thread::yield_now();
                                }
                                42
                            })
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(answers, vec![42; CALLERS]);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(memo.len(), 1);
    }
}
