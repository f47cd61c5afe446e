//! The end-to-end diagnosis engine (`Alg_sim` and `Alg_rev`).

use crate::cache::DictionaryCache;
use crate::dictionary::{DictionaryConfig, ProbabilisticDictionary};
use crate::error_fn::{phi_sparse, ErrorFunction};
use crate::metrics::{MetricsSink, Phase};
use crate::suspects::collect_suspects;
use crate::{BehaviorMatrix, DiagnosisError};
use sdd_atpg::PatternSet;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{CircuitTiming, Dist};
use serde::{Deserialize, Serialize};

/// One ranked defect-site candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedSite {
    /// The candidate arc.
    pub edge: EdgeId,
    /// The score under the error function used (probability for
    /// `Alg_sim`, squared error for `Alg_rev`).
    pub score: f64,
}

/// Configuration of the diagnosis engine.
///
/// Non-exhaustive: construct via [`DiagnoserConfig::new`] or
/// [`DiagnoserConfig::default`], then adjust fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct DiagnoserConfig {
    /// Monte-Carlo budget for the probabilistic dictionary.
    pub dictionary: DictionaryConfig,
}

impl DiagnoserConfig {
    /// A configuration using the given dictionary settings.
    pub fn new(dictionary: DictionaryConfig) -> DiagnoserConfig {
        DiagnoserConfig { dictionary }
    }
}

/// The diagnosis engine: bundles the circuit model, its statistical
/// timing, the applied pattern set and the assumed defect-size
/// distribution, and answers "where is the defect?" for observed failing
/// behaviour.
///
/// Implements Algorithm E.1 (`Alg_sim`, Methods I–III) and Algorithm F.1
/// (`Alg_rev`) over a shared probabilistic fault dictionary.
#[derive(Debug, Clone)]
pub struct Diagnoser<'a> {
    circuit: &'a Circuit,
    timing: &'a CircuitTiming,
    patterns: &'a PatternSet,
    defect_size: Dist,
    config: DiagnoserConfig,
    cache: Option<&'a DictionaryCache>,
    metrics: Option<&'a MetricsSink>,
}

impl<'a> Diagnoser<'a> {
    /// Creates a diagnoser.
    pub fn new(
        circuit: &'a Circuit,
        timing: &'a CircuitTiming,
        patterns: &'a PatternSet,
        defect_size: Dist,
        config: DiagnoserConfig,
    ) -> Self {
        Diagnoser {
            circuit,
            timing,
            patterns,
            defect_size,
            config,
            cache: None,
            metrics: None,
        }
    }

    /// Routes dictionary construction through a shared
    /// [`DictionaryCache`] (results stay bit-identical to uncached
    /// builds; see the cache docs).
    pub fn with_cache(mut self, cache: &'a DictionaryCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Reports dictionary-cache hits/misses, simulated samples and the
    /// kernel counters to `metrics` — with or without
    /// [`Diagnoser::with_cache`] (a build without a cache counts as one
    /// miss).
    pub fn with_metrics(mut self, metrics: &'a MetricsSink) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Step 1 plus dictionary construction: prunes the suspect set from
    /// the failing behaviour and builds the probabilistic dictionary for
    /// it. Exposed so several error functions (or repeated queries) can
    /// share one expensive build.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::NoSuspects`] when nothing is sensitized to a
    /// failing output (including the all-pass case).
    pub fn build_dictionary(
        &self,
        behavior: &BehaviorMatrix,
    ) -> Result<ProbabilisticDictionary, DiagnosisError> {
        let suspects = collect_suspects(self.circuit, self.patterns, behavior);
        if suspects.is_empty() {
            return Err(DiagnosisError::NoSuspects);
        }
        let throwaway;
        let cache = match self.cache {
            Some(cache) => cache,
            None => {
                throwaway = DictionaryCache::new();
                &throwaway
            }
        };
        Ok(cache.build_with_behavior(
            self.circuit,
            self.timing,
            &self.defect_size,
            self.patterns,
            &suspects,
            behavior.clk(),
            self.config.dictionary,
            Some(behavior),
            self.metrics,
        ))
    }

    /// Ranks every suspect of a prebuilt dictionary against the observed
    /// behaviour under the given error function, best candidate first;
    /// ties break towards lower arc ids (stable).
    pub fn rank(
        &self,
        dictionary: &ProbabilisticDictionary,
        behavior: &BehaviorMatrix,
        function: ErrorFunction,
    ) -> Vec<RankedSite> {
        let failing_per_pattern: Vec<Vec<usize>> = (0..behavior.num_patterns())
            .map(|j| behavior.failing_outputs(j))
            .collect();
        // `sig` and `phis` are reused across every (suspect, pattern)
        // pair: the rank phase runs once per error function per
        // diagnosis, and the old per-pattern Vec allocation dominated it
        // on large suspect lists.
        let mut sig: Vec<f64> = Vec::new();
        let mut phis: Vec<f64> = Vec::new();
        let mut ranked: Vec<RankedSite> = Vec::with_capacity(dictionary.suspects().len());
        for (si, suspect) in dictionary.suspects().iter().enumerate() {
            phis.clear();
            for (j, failing) in failing_per_pattern.iter().enumerate() {
                if function == ErrorFunction::JointEuclidean {
                    if let Some(p) = suspect.joint_phi(j) {
                        phis.push(p);
                        continue;
                    }
                }
                sig.clear();
                sig.extend(
                    (0..suspect.reachable_outputs().len())
                        .map(|slot| dictionary.signature(si, slot, j)),
                );
                phis.push(phi_sparse(&sig, suspect.reachable_outputs(), failing));
            }
            ranked.push(RankedSite {
                edge: suspect.edge(),
                score: function.combine(&phis),
            });
        }
        ranked.sort_by(|a, b| {
            function
                .compare(a.score, b.score)
                .then_with(|| a.edge.cmp(&b.edge))
        });
        ranked
    }

    /// Full diagnosis: prune suspects, build the dictionary, rank, and
    /// return the top `k` candidates (Algorithm E.1 step 8 / F.1 step 8).
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::NoSuspects`] when the behaviour cannot implicate
    /// any arc.
    pub fn diagnose(
        &self,
        behavior: &BehaviorMatrix,
        function: ErrorFunction,
        k: usize,
    ) -> Result<Vec<RankedSite>, DiagnosisError> {
        let dictionary = self.build_dictionary(behavior)?;
        let mut ranked = self.rank(&dictionary, behavior, function);
        ranked.truncate(k);
        Ok(ranked)
    }

    /// Diagnoses with every error function over one shared dictionary.
    /// Returns `(function, full ranking)` pairs in
    /// [`ErrorFunction::EXTENDED`] order. With
    /// [`with_metrics`](Self::with_metrics), the build is charged to
    /// [`Phase::Dictionary`] (also when it fails) and the ranking to
    /// [`Phase::Rank`].
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::NoSuspects`] when the behaviour cannot implicate
    /// any arc.
    pub fn diagnose_all(
        &self,
        behavior: &BehaviorMatrix,
    ) -> Result<Vec<(ErrorFunction, Vec<RankedSite>)>, DiagnosisError> {
        let dictionary = self.timed(Phase::Dictionary, || self.build_dictionary(behavior))?;
        Ok(self.timed(Phase::Rank, || {
            ErrorFunction::EXTENDED
                .into_iter()
                .map(|f| (f, self.rank(&dictionary, behavior, f)))
                .collect()
        }))
    }

    /// Runs `f`, charging its wall time to `phase` of the metrics sink
    /// when there is one.
    fn timed<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        match self.metrics {
            Some(metrics) => metrics.time(phase, f),
            None => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::InjectedDefect;
    use sdd_atpg::TestPattern;
    use sdd_netlist::{CircuitBuilder, GateKind};
    use sdd_timing::{CellLibrary, VariationModel};

    /// Two disjoint chains with separate outputs — a defect on one chain
    /// must be diagnosed to that chain.
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

    fn setup_failing(
        c: &Circuit,
        t: &CircuitTiming,
        ps: &PatternSet,
        defect_edge: EdgeId,
    ) -> BehaviorMatrix {
        // Clock above the defect-free upper tail, below defect + nominal.
        let sta = sdd_timing::sta::static_mc(c, t, 200, 1).expect("static MC runs");
        let clk = sta.clock_at_quantile(0.99) * 1.05;
        let chip = t.sample_instance_indexed(77, 0);
        let defect = InjectedDefect {
            edge: defect_edge,
            delta: 0.8, // huge relative to ~0.2 ns chains
        };
        BehaviorMatrix::observe(c, ps, &defect.apply(&chip), clk)
    }

    #[test]
    fn pinpoints_defective_chain_with_every_function() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let g1 = c.find("g1").unwrap();
        let defect_edge = c.node(g1).fanin_edges()[0]; // a -> g1
        let behavior = setup_failing(&c, &t, &ps, defect_edge);
        assert!(!behavior.all_pass(), "defect must cause failures");

        let d = Diagnoser::new(
            &c,
            &t,
            &ps,
            sdd_timing::Dist::defect_size(0.8),
            DiagnoserConfig {
                dictionary: DictionaryConfig {
                    n_samples: 100,
                    seed: 3,
                    ..DictionaryConfig::default()
                },
            },
        );
        for (function, ranking) in d.diagnose_all(&behavior).unwrap() {
            // Output 0 (chain a) fails, chain b passes: all suspects are
            // on chain a, and the defective arc must be among them.
            assert!(
                ranking.iter().any(|r| r.edge == defect_edge),
                "{}: defect edge missing from ranking",
                function.name()
            );
            for r in &ranking {
                let sink = c.edge(r.edge).to();
                let name = c.node(sink).name();
                assert!(
                    name.starts_with('g'),
                    "{}: suspect {} is on the passing chain",
                    function.name(),
                    name
                );
            }
        }
    }

    #[test]
    fn top_k_truncates() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let g1 = c.find("g1").unwrap();
        let defect_edge = c.node(g1).fanin_edges()[0];
        let behavior = setup_failing(&c, &t, &ps, defect_edge);
        let d = Diagnoser::new(
            &c,
            &t,
            &ps,
            sdd_timing::Dist::defect_size(0.8),
            DiagnoserConfig::default(),
        );
        let top1 = d.diagnose(&behavior, ErrorFunction::Euclidean, 1).unwrap();
        assert_eq!(top1.len(), 1);
    }

    #[test]
    fn all_pass_yields_no_suspects() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let chip = t.sample_instance_indexed(77, 0);
        // Generous clock: everything passes.
        let behavior = BehaviorMatrix::observe(&c, &ps, &chip, 100.0);
        assert!(behavior.all_pass());
        let d = Diagnoser::new(
            &c,
            &t,
            &ps,
            sdd_timing::Dist::defect_size(0.1),
            DiagnoserConfig::default(),
        );
        assert!(matches!(
            d.diagnose(&behavior, ErrorFunction::MethodII, 3),
            Err(DiagnosisError::NoSuspects)
        ));
    }

    #[test]
    fn metrics_without_a_cache_book_the_build() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let g1 = c.find("g1").unwrap();
        let behavior = setup_failing(&c, &t, &ps, c.node(g1).fanin_edges()[0]);
        let metrics = MetricsSink::new();
        let d = Diagnoser::new(
            &c,
            &t,
            &ps,
            sdd_timing::Dist::defect_size(0.8),
            DiagnoserConfig::new(DictionaryConfig::new().with_samples(40)),
        )
        .with_metrics(&metrics);
        let suspects = d.build_dictionary(&behavior).unwrap().suspects().len();
        assert!(suspects > 0);
        let snap = metrics.snapshot(std::time::Duration::ZERO);
        assert_eq!(snap.dict_cache_misses, 1);
        assert_eq!(snap.dict_cache_hits, 0);
        assert_eq!(snap.samples_simulated, (ps.len() * 40) as u64);
        assert_eq!(snap.cone_evals, (ps.len() * 40 * suspects) as u64);
    }

    #[test]
    fn rankings_are_sorted_per_function_direction() {
        let (c, t) = two_chains();
        let ps = both_rise();
        let g1 = c.find("g1").unwrap();
        let defect_edge = c.node(g1).fanin_edges()[0];
        let behavior = setup_failing(&c, &t, &ps, defect_edge);
        let d = Diagnoser::new(
            &c,
            &t,
            &ps,
            sdd_timing::Dist::defect_size(0.8),
            DiagnoserConfig::default(),
        );
        for (function, ranking) in d.diagnose_all(&behavior).unwrap() {
            for w in ranking.windows(2) {
                assert_ne!(
                    function.compare(w[0].score, w[1].score),
                    std::cmp::Ordering::Greater,
                    "{} ranking out of order",
                    function.name()
                );
            }
        }
    }
}
