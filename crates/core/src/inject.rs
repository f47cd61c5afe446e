//! The statistical defect-injection campaign of Section I.
//!
//! For each circuit: manufacture `N` chip instances from the statistical
//! timing model; on each, inject one delay defect with random location
//! and random size (Definition D.10, sizes per Section I); generate
//! path-delay tests through the fault site over its statistically-longest
//! paths (Section H-4); observe the behaviour matrix at the cut-off
//! period; diagnose with every error function; and score success = the
//! injected arc is contained in the top-`K` answer.

use crate::cache::DictionaryCache;
use crate::defect::SingleDefectModel;
use crate::diagnoser::{Diagnoser, DiagnoserConfig, RankedSite};
use crate::dictionary::DictionaryConfig;
use crate::error_fn::ErrorFunction;
use crate::evaluate::AccuracyReport;
use crate::metrics::{Counter, InstanceTrace, MetricsSink, Phase, TraceOutcome};
use crate::{BehaviorMatrix, CaptureModel, DiagnosisError, ObservedBehavior};
use rayon::prelude::*;
use sdd_atpg::fault::{PathDelayFault, TransitionDirection};
use sdd_atpg::path_atpg::generate_candidate_tests;
use sdd_atpg::podem::{PiAssignment, PodemConfig};
use sdd_atpg::PatternSet;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{path, sta, CellLibrary, CircuitTiming, TimingInstance, VariationModel};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of a defect-injection campaign.
///
/// Non-exhaustive: construct via [`CampaignConfig::paper`] or
/// [`CampaignConfig::quick`] and refine with the `with_*` builders (or
/// direct field assignment — fields stay public).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct CampaignConfig {
    /// Number of chip instances (`N = 20` in the paper).
    pub n_instances: usize,
    /// The `K` values to report.
    pub k_values: Vec<usize>,
    /// Statistically-longest paths selected through the fault site.
    pub n_paths: usize,
    /// Hard cap on the applied pattern count ("usually smaller than 20").
    pub max_patterns: usize,
    /// How the cut-off period `clk` is chosen.
    pub clock: ClockPolicy,
    /// Monte-Carlo samples for the clock estimate.
    pub sta_samples: usize,
    /// Monte-Carlo budget of the probabilistic dictionary.
    pub dictionary: DictionaryConfig,
    /// Process variation model.
    pub variation: VariationModel,
    /// Master seed; the whole campaign is deterministic given it.
    pub seed: u64,
    /// Redraws of the defect (location and size) when the injected chip
    /// passes every pattern; a chip still passing afterwards scores a
    /// failed diagnosis.
    pub max_redraws: usize,
    /// How the tester's capture is modelled when observing `B`.
    pub capture: CaptureModel,
    /// Backtrack budget per path-test justification (sensitizable paths
    /// justify quickly; a tight budget bounds the cost of the many false
    /// paths that cannot be justified at all).
    pub path_backtracks: usize,
    /// Backtrack budget per transition-fault PODEM run.
    pub podem_backtracks: usize,
    /// Extra ladder steps the clock sweep tightens past the first failing
    /// level (more failing patterns, smaller ambiguity groups).
    pub sweep_extra_steps: usize,
}

impl CampaignConfig {
    /// The paper's Section I configuration: `N = 20`, ≤ 20 patterns.
    pub fn paper(seed: u64) -> CampaignConfig {
        CampaignConfig {
            n_instances: 20,
            k_values: vec![1, 3, 7],
            n_paths: 8,
            max_patterns: 20,
            clock: ClockPolicy::default(),
            sta_samples: 400,
            dictionary: DictionaryConfig {
                n_samples: 150,
                seed,
                ..DictionaryConfig::default()
            },
            variation: VariationModel::default(),
            seed,
            max_redraws: 10,
            capture: CaptureModel::TransitionArrival,
            path_backtracks: 120,
            podem_backtracks: 500,
            sweep_extra_steps: 2,
        }
    }

    /// A reduced configuration for tests and examples (small budgets,
    /// `N = 6`).
    pub fn quick(seed: u64) -> CampaignConfig {
        CampaignConfig {
            n_instances: 6,
            k_values: vec![1, 3],
            n_paths: 4,
            max_patterns: 10,
            clock: ClockPolicy::default(),
            sta_samples: 120,
            dictionary: DictionaryConfig {
                n_samples: 60,
                seed,
                ..DictionaryConfig::default()
            },
            variation: VariationModel::default(),
            seed,
            max_redraws: 6,
            capture: CaptureModel::TransitionArrival,
            path_backtracks: 100,
            podem_backtracks: 300,
            sweep_extra_steps: 2,
        }
    }

    /// Sets the number of manufactured chip instances.
    pub fn with_instances(mut self, n_instances: usize) -> Self {
        self.n_instances = n_instances;
        self
    }

    /// Replaces the dictionary budget (samples, seed and kernel).
    pub fn with_dictionary(mut self, dictionary: DictionaryConfig) -> Self {
        self.dictionary = dictionary;
        self
    }

    /// Sets only the dictionary's fail-probability kernel.
    pub fn with_kernel(mut self, kernel: crate::dictionary::SimKernel) -> Self {
        self.dictionary.kernel = kernel;
        self
    }

    /// Sets the clock policy.
    pub fn with_clock(mut self, clock: ClockPolicy) -> Self {
        self.clock = clock;
        self
    }
}

/// The knobs pattern generation actually depends on, split out of
/// [`CampaignConfig`] so pattern reuse can be keyed on them: the tests
/// through a site are a pure function of
/// `(circuit, site, AtpgConfig, seed)` and never see a chip's sampled
/// delays — which is what makes them cacheable and persistable at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgConfig {
    /// Statistically-longest paths targeted through the site.
    pub n_paths: usize,
    /// Hard cap on the applied pattern count.
    pub max_patterns: usize,
    /// Search budget per path-test justification.
    pub path_config: PodemConfig,
    /// Search budget per transition-fault PODEM run.
    pub podem_config: PodemConfig,
}

impl AtpgConfig {
    /// The pattern-generation slice of a campaign configuration — the
    /// exact budgets the campaign body has always derived from it.
    pub fn from_campaign(config: &CampaignConfig) -> AtpgConfig {
        AtpgConfig {
            n_paths: config.n_paths,
            max_patterns: config.max_patterns,
            path_config: PodemConfig {
                max_backtracks: config.path_backtracks,
                max_implications: config.path_backtracks * 4,
            },
            podem_config: PodemConfig {
                max_backtracks: config.podem_backtracks,
                max_implications: config.podem_backtracks * 4,
            },
        }
    }

    /// Stable FNV-1a fingerprint over every field, for pattern cache and
    /// store keys (two configs agree iff they generate identical sets
    /// from identical circuits and seeds).
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::format::StableHasher::new();
        h.write_usize(self.n_paths);
        h.write_usize(self.max_patterns);
        h.write_usize(self.path_config.max_backtracks);
        h.write_usize(self.path_config.max_implications);
        h.write_usize(self.podem_config.max_backtracks);
        h.write_usize(self.podem_config.max_implications);
        h.finish()
    }
}

/// How the cut-off period (the at-speed test clock) is chosen.
///
/// The paper's defects are small — 50 % to 100 % of one cell delay
/// (Section I) — so they are only observable when the test clock carries
/// little margin over the paths the patterns actually exercise. The
/// default policy therefore clocks each test session relative to the
/// *tested subcircuit's* delay distribution `Δ(Induced(Path_TP))`
/// (Definition D.5), which is what an at-speed tester of those paths
/// does. A circuit-level policy (relative to `Δ(C)`) is available for
/// ablation; under it, defects far from the critical path escape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum ClockPolicy {
    /// `clk` = the given quantile of the circuit delay `Δ(C)`, fixed for
    /// the whole campaign.
    CircuitQuantile(f64),
    /// `clk` = the given quantile of the distribution of
    /// `max over patterns and outputs` of the dynamic arrival times of
    /// the applied pattern set — recomputed per test session.
    TestedQuantile(f64),
    /// Clock sweep (the small-delay-defect testing practice this paper
    /// pioneered): starting from a generous clock, tighten along a ladder
    /// of tested-delay quantiles until the chip under test fails at least
    /// one pattern; the first failing clock is used to record `B`. A
    /// defective chip's earliest failures are the ones its defect pushed
    /// to the top of the tested-delay range, so `B` is informative
    /// without oracle knowledge of the defect.
    #[default]
    Sweep,
}

/// The quantile ladder walked by [`ClockPolicy::Sweep`], tightest last.
pub const SWEEP_QUANTILES: [f64; 6] = [0.95, 0.8, 0.65, 0.5, 0.35, 0.2];

/// The clock sweep of [`ClockPolicy::Sweep`] over one chip's
/// clock-independent capture: walk [`SWEEP_QUANTILES`] of the
/// tested-delay `samples` until the chip fails some pattern, then
/// tighten `extra_steps` more levels (clamped to the ladder) and record
/// `B` there. Every level re-thresholds the same capture, so the whole
/// ladder costs one topology walk. Returns `None` when the chip passes
/// at every level.
///
/// The first failing level often exposes only the chip's single most
/// critical tested path; going deeper makes more of the defect's paths
/// fail, which shrinks the ambiguity group of arcs that could explain
/// the behaviour.
pub(crate) fn sweep_ladder(
    observed: &ObservedBehavior,
    samples: &sdd_timing::Samples,
    extra_steps: usize,
) -> Option<BehaviorMatrix> {
    let first = SWEEP_QUANTILES
        .iter()
        .position(|&q| !observed.matrix_at(samples.quantile(q)).all_pass())?;
    let level = (first + extra_steps).min(SWEEP_QUANTILES.len() - 1);
    Some(observed.matrix_at(samples.quantile(SWEEP_QUANTILES[level])))
}

/// Monte-Carlo samples of `Δ(Induced(Path_TP))` (Definition D.5): the
/// maximum dynamic arrival time over all patterns and outputs, per
/// manufactured model instance. The clock policies quantize this
/// distribution.
///
/// Runs sample-major: one [`sdd_timing::InstanceBatch`] carries every
/// instance and each pattern is timed for all samples in one
/// [`sdd_timing::dynamic::transition_arrivals_batch`] walk. Bit-identical
/// to a per-instance scalar walk (the test suite's oracle) — the batch
/// draws the same keyed per-index instances and the max-fold runs in the
/// same (pattern, output) order per sample; only the loop nest is
/// interchanged.
///
/// # Panics
///
/// Panics if `n_samples == 0` or the pattern set is empty.
pub fn tested_delay_samples(
    circuit: &Circuit,
    timing: &CircuitTiming,
    patterns: &PatternSet,
    n_samples: usize,
    seed: u64,
) -> sdd_timing::Samples {
    assert!(n_samples > 0, "monte-carlo sample count must be positive");
    let batch = timing.sample_instance_batch(seed ^ 0x7E57, 0, n_samples);
    tested_delay_samples_from_batch(circuit, patterns, &batch)
}

/// The fold behind [`tested_delay_samples`], over an already-sampled
/// [`sdd_timing::InstanceBatch`]. The instance draws are keyed on
/// (timing model, seed) only, so a campaign can sample the batch once
/// and share it across every chip (see
/// [`DictionaryCache`]); passing such a batch
/// here is bit-identical to resampling it.
///
/// # Panics
///
/// Panics if the batch is empty or the pattern set is empty.
pub fn tested_delay_samples_from_batch(
    circuit: &Circuit,
    patterns: &PatternSet,
    batch: &sdd_timing::InstanceBatch,
) -> sdd_timing::Samples {
    let n_samples = batch.n_samples();
    assert!(n_samples > 0, "monte-carlo sample count must be positive");
    assert!(!patterns.is_empty(), "pattern set must be non-empty");
    let transitions: Vec<_> = patterns
        .iter()
        .map(|p| sdd_netlist::logic::simulate_pair(circuit, &p.v1, &p.v2))
        .collect();
    let mut worst = vec![0.0f64; n_samples];
    for t in &transitions {
        let arr = sdd_timing::dynamic::transition_arrivals_batch(circuit, t, batch);
        for &o in circuit.primary_outputs() {
            let row = &arr[o.index() * n_samples..(o.index() + 1) * n_samples];
            for (w, &a) in worst.iter_mut().zip(row) {
                if a.is_finite() {
                    *w = w.max(a);
                }
            }
        }
    }
    worst.into_iter().collect()
}

/// The clock for [`ClockPolicy::TestedQuantile`]: the given quantile of
/// [`tested_delay_samples`].
///
/// # Panics
///
/// Panics if `n_samples == 0` or the pattern set is empty.
pub fn tested_clock(
    circuit: &Circuit,
    timing: &CircuitTiming,
    patterns: &PatternSet,
    quantile: f64,
    n_samples: usize,
    seed: u64,
) -> f64 {
    tested_delay_samples(circuit, timing, patterns, n_samples, seed).quantile(quantile)
}

/// Outcome of diagnosing one injected chip (exposed for the worked
/// examples and figure reproductions).
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// The arc that actually carries the defect.
    pub injected: EdgeId,
    /// The injected defect size.
    pub delta: f64,
    /// Patterns applied.
    pub n_patterns: usize,
    /// Suspect-set size after pruning (0 when diagnosis failed).
    pub n_suspects: usize,
    /// Full ranking per error function ([`ErrorFunction::EXTENDED`] order);
    /// empty when diagnosis failed.
    pub rankings: Vec<Vec<RankedSite>>,
    /// Where this instance's time went and how the cache/store served
    /// it (also folded into the campaign's shared [`MetricsSink`]).
    pub trace: InstanceTrace,
}

/// Generates delay tests through `site` (Section H-4): robust path tests
/// over its statistically longest paths first, non-robust fallback, both
/// launch directions; when single-path sensitization fails (long paths in
/// reconvergent logic are frequently false paths — the very problem the
/// paper's false-path-aware selection \[17\] addresses), transition-fault
/// two-pattern tests through the site fill the budget. Transition tests
/// launch the same transition through the segment but let it propagate
/// along whatever paths the logic sensitizes.
///
/// Returns an empty set when the site is untestable altogether.
pub fn patterns_through_site(
    circuit: &Circuit,
    timing: &CircuitTiming,
    site: EdgeId,
    n_paths: usize,
    max_patterns: usize,
    seed: u64,
) -> PatternSet {
    patterns_through_site_with(
        circuit,
        timing,
        site,
        n_paths,
        max_patterns,
        seed,
        PodemConfig::bulk(),
        PodemConfig {
            max_backtracks: 500,
            max_implications: 4000,
        },
    )
}

/// [`patterns_through_site`] with explicit search budgets: `path_config`
/// bounds each path-test justification, `podem_config` each
/// transition-fault PODEM run.
///
/// Both pattern sources run their searches concurrently over the rayon
/// pool, then replay acceptance (push order, dedup, early exit) serially
/// in canonical candidate order. Every search is pure in its inputs and
/// every test seed is keyed on the candidate's *position*, never on how
/// many candidates were accepted before it — so the returned set is
/// bit-identical to the historical serial loop at any thread count; the
/// only cost of speculation is wasted work past an early exit.
#[allow(clippy::too_many_arguments)]
pub fn patterns_through_site_with(
    circuit: &Circuit,
    timing: &CircuitTiming,
    site: EdgeId,
    n_paths: usize,
    max_patterns: usize,
    seed: u64,
    path_config: PodemConfig,
    podem_config: PodemConfig,
) -> PatternSet {
    let mut set = PatternSet::new();
    // Scan more candidates than requested paths: the longest ones are
    // often unsensitizable.
    if let Ok(paths) = path::k_longest_through_edge(circuit, timing, site, n_paths * 2) {
        let candidates: Vec<(PathDelayFault, u64)> = paths
            .iter()
            .enumerate()
            .flat_map(|(pix, p)| {
                [TransitionDirection::Rise, TransitionDirection::Fall]
                    .into_iter()
                    .enumerate()
                    .map(move |(dix, launch)| {
                        let test_seed = seed
                            .wrapping_mul(0x5851_F42D_4C95_7F2D)
                            .wrapping_add((pix * 2 + dix) as u64);
                        (PathDelayFault::new(p.clone(), launch), test_seed)
                    })
            })
            .collect();
        let tests = generate_candidate_tests(circuit, &candidates, path_config);
        let mut path_tests = 0usize;
        for pt in tests.into_iter().flatten() {
            if set.push(pt.pattern) {
                path_tests += 1;
            }
            if path_tests >= n_paths || set.len() >= max_patterns {
                break;
            }
        }
    }
    // Transition-fault tests through the segment: one PODEM search per
    // direction, then several quiet fills of the resulting partial
    // assignments (different fills sensitize different propagation
    // paths). Several independent searches per direction with randomized
    // backtrace choices (structural diversity), two quiet fills each
    // (value diversity).
    let fills_per_direction = (max_patterns.saturating_sub(set.len())).max(2);
    let searches = fills_per_direction.div_ceil(2).min(4);
    let targets: Vec<(sdd_atpg::fault::TransitionFault, u64)> =
        [TransitionDirection::Rise, TransitionDirection::Fall]
            .into_iter()
            .enumerate()
            .flat_map(|(dix, direction)| {
                (0..searches).map(move |si| {
                    let decision_seed = seed
                        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                        .wrapping_add((dix * searches + si) as u64);
                    (
                        sdd_atpg::fault::TransitionFault::new(site, direction),
                        decision_seed,
                    )
                })
            })
            .collect();
    let assignments: Vec<Option<(PiAssignment, PiAssignment)>> = targets
        .par_iter()
        .map(|&(fault, decision_seed)| {
            sdd_atpg::podem::generate_transition_assignments_diverse(
                circuit,
                fault,
                podem_config,
                Some(decision_seed),
            )
            .ok()
        })
        .collect();
    for dix in 0..2usize {
        'searches: for si in 0..searches {
            let (_, decision_seed) = targets[dix * searches + si];
            let Some((v1, v2)) = &assignments[dix * searches + si] else {
                continue;
            };
            let fills = fills_per_direction.div_ceil(searches).max(1);
            for fill in 0..fills as u64 {
                if set.len() >= max_patterns {
                    break 'searches;
                }
                let test_seed = decision_seed.wrapping_add(1 + fill);
                set.push(sdd_atpg::podem::fill_pattern_quiet(v1, v2, test_seed));
            }
        }
    }
    set
}

/// The campaign body behind [`crate::session::DiagnosisSession`]: fan
/// chips out over the *current* rayon pool against the given cache and
/// metrics sink. The report's metrics are the delta against the sink's
/// state at entry, so a long-lived session reports per-campaign numbers.
pub(crate) fn run_campaign_on_with(
    circuit: &Circuit,
    config: &CampaignConfig,
    cache: &DictionaryCache,
    metrics: &MetricsSink,
) -> Result<AccuracyReport, DiagnosisError> {
    let start = Instant::now();
    let baseline = metrics.snapshot(std::time::Duration::ZERO);
    let trace_baseline = metrics.trace_seq();
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(circuit, &library, config.variation);
    let model_fp = crate::store::fingerprint_model(circuit, &timing);
    let circuit_clk = match config.clock {
        ClockPolicy::CircuitQuantile(q) => Some(
            sta::static_mc(circuit, &timing, config.sta_samples, config.seed)?.clock_at_quantile(q),
        ),
        ClockPolicy::TestedQuantile(_) | ClockPolicy::Sweep => None,
    };
    let defect_model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
    let mut report = AccuracyReport::new(
        circuit.name(),
        config.k_values.clone(),
        ErrorFunction::EXTENDED.to_vec(),
    );
    let outcomes: Vec<Option<InstanceOutcome>> = (0..config.n_instances)
        .into_par_iter()
        .map(|i| {
            diagnose_instance_impl(
                circuit,
                &timing,
                model_fp,
                &defect_model,
                circuit_clk,
                config,
                i,
                cache,
                metrics,
            )
        })
        .collect();
    for outcome in outcomes {
        match outcome {
            Some(o) if !o.rankings.is_empty() => {
                report.record(o.injected, &o.rankings, o.n_suspects, o.n_patterns);
            }
            Some(o) => report.record_failure(o.n_patterns),
            None => report.record_failure(0),
        }
    }
    let elapsed = start.elapsed();
    report.metrics = metrics.snapshot(elapsed).since(&baseline, elapsed);
    // Chip-index order, not worker completion order: the trace list is
    // part of the report's deterministic content (equality still
    // ignores it, like `metrics`).
    report.traces = metrics.traces_since(trace_baseline);
    Ok(report)
}

/// Injects, observes and diagnoses the `index`-th chip of a campaign.
/// Returns `None` when no observable failing configuration could be
/// drawn within the redraw budget.
///
/// `circuit_clk` is the campaign-level clock for
/// [`ClockPolicy::CircuitQuantile`]; pass `None` under
/// [`ClockPolicy::TestedQuantile`] and the clock is estimated per test
/// session.
pub fn diagnose_one_instance(
    circuit: &Circuit,
    timing: &CircuitTiming,
    defect_model: &SingleDefectModel,
    circuit_clk: Option<f64>,
    config: &CampaignConfig,
    index: usize,
) -> Option<InstanceOutcome> {
    diagnose_instance_impl(
        circuit,
        timing,
        crate::store::fingerprint_model(circuit, timing),
        defect_model,
        circuit_clk,
        config,
        index,
        &DictionaryCache::new(),
        &MetricsSink::new(),
    )
}

/// The per-chip body behind [`diagnose_one_instance`] and
/// [`crate::session::DiagnosisSession::diagnose_instance`]. This is what
/// the campaign fans out over the thread pool: diagnosing the same chip
/// index through the same cache yields a bit-identical outcome
/// regardless of thread count or cache population order.
///
/// Every timer, cache event and store event of this instance lands in a
/// private scratch [`MetricsSink`] first;
/// [`MetricsSink::record_instance`] then folds the scratch snapshot
/// into the shared sink and derives the per-phase latency histograms
/// and the [`InstanceTrace`] from the very same numbers — so the
/// aggregate counters, the histograms and the traces agree exactly.
///
/// `model_fp` is the caller's one
/// [`fingerprint_model`](crate::store::fingerprint_model) of (circuit,
/// timing): it keys the tested-delay chip batch of every redraw.
#[allow(clippy::too_many_arguments)]
pub(crate) fn diagnose_instance_impl(
    circuit: &Circuit,
    timing: &CircuitTiming,
    model_fp: u64,
    defect_model: &SingleDefectModel,
    circuit_clk: Option<f64>,
    config: &CampaignConfig,
    index: usize,
    cache: &DictionaryCache,
    metrics: &MetricsSink,
) -> Option<InstanceOutcome> {
    let local = MetricsSink::new();
    let chip = timing.sample_instance_indexed(config.seed ^ 0xC41F, index as u64);
    let atpg = AtpgConfig::from_campaign(config);
    let mut draws: u64 = 0;
    let mut last_edge: Option<EdgeId> = None;
    let mut last_delta = 0.0f64;
    let mut last_patterns = 0usize;
    let mut observed: Option<(std::sync::Arc<PatternSet>, crate::BehaviorMatrix)> = None;
    // Redraws can land on a site this instance already paid the pattern
    // lookup for (the site seed is a pure function of the edge, so the
    // set would be identical); holding the handle here keeps repeated
    // sites from re-entering the cache and its counters.
    let mut site_patterns: std::collections::HashMap<EdgeId, std::sync::Arc<PatternSet>> =
        std::collections::HashMap::new();
    for attempt in 0..config.max_redraws {
        draws += 1;
        let defect_seed = config
            .seed
            .wrapping_add(1 + index as u64 * 131 + attempt as u64 * 7919);
        let defect = defect_model.sample_defect(circuit, defect_seed);
        last_edge = Some(defect.edge);
        last_delta = defect.delta;
        // Patterns (and with them the tested-delay clock ladder) are
        // keyed on the hypothesized defect *site*, not the chip: chips
        // drawing the same site share one pattern set and clock ladder,
        // which is what lets the dictionary cache serve them all from a
        // single Monte-Carlo build.
        let patterns = match site_patterns.get(&defect.edge) {
            Some(patterns) => std::sync::Arc::clone(patterns),
            None => {
                let site_seed = config
                    .seed
                    .wrapping_mul(0x94D0_49BB_1331_11EB)
                    .wrapping_add(defect.edge.index() as u64);
                let patterns = local.time(Phase::Patterns, || {
                    cache.patterns_for_site(
                        circuit,
                        timing,
                        defect.edge,
                        &atpg,
                        site_seed,
                        Some(&local),
                    )
                });
                site_patterns.insert(defect.edge, std::sync::Arc::clone(&patterns));
                patterns
            }
        };
        last_patterns = patterns.len();
        if patterns.is_empty() {
            continue;
        }
        let failing_chip = defect.apply(&chip);
        let behavior = local.time(Phase::Observe, || {
            observe_behavior(
                circuit,
                timing,
                model_fp,
                &patterns,
                &failing_chip,
                circuit_clk,
                config,
                cache,
                &local,
            )
        });
        let Some(behavior) = behavior else {
            continue;
        };
        if behavior.all_pass() {
            continue;
        }
        observed = Some((patterns, behavior));
        break;
    }
    let (outcome, clk, n_suspects, rankings) = match &observed {
        Some((patterns, behavior)) => {
            let diagnoser = Diagnoser::new(
                circuit,
                timing,
                patterns,
                defect_model.size_dist(),
                DiagnoserConfig {
                    dictionary: config.dictionary,
                },
            )
            .with_cache(cache)
            .with_metrics(&local);
            let built = local.time(Phase::Dictionary, || diagnoser.build_dictionary(behavior));
            match built {
                Ok(dictionary) => {
                    let rankings: Vec<Vec<RankedSite>> = local.time(Phase::Rank, || {
                        ErrorFunction::EXTENDED
                            .into_iter()
                            .map(|f| diagnoser.rank(&dictionary, behavior, f))
                            .collect()
                    });
                    let n_suspects = rankings.first().map(|r| r.len()).unwrap_or(0);
                    (
                        TraceOutcome::Diagnosed,
                        Some(behavior.clk()),
                        n_suspects,
                        rankings,
                    )
                }
                Err(_) => (
                    TraceOutcome::DictionaryFailed,
                    Some(behavior.clk()),
                    0,
                    Vec::new(),
                ),
            }
        }
        None => (TraceOutcome::Undetected, None, 0, Vec::new()),
    };
    let scratch = local.snapshot(std::time::Duration::ZERO);
    let trace = InstanceTrace {
        chip_index: index as u64,
        redraws: draws.saturating_sub(1),
        injected_edge: last_edge.map(|e| e.index() as u64),
        n_suspects: n_suspects as u64,
        n_patterns: last_patterns as u64,
        clk,
        ..InstanceTrace::new(outcome, &scratch)
    };
    metrics.record_instance(&scratch, trace.clone());
    observed.map(|_| InstanceOutcome {
        injected: last_edge.expect("observed implies a defect was drawn"),
        delta: last_delta,
        n_patterns: last_patterns,
        n_suspects,
        rankings,
        trace,
    })
}

/// Chooses the cut-off period per the campaign's [`ClockPolicy`] and
/// records the behaviour matrix. Returns `None` when a clock sweep never
/// makes the chip fail (the caller redraws the defect).
#[allow(clippy::too_many_arguments)]
fn observe_behavior(
    circuit: &Circuit,
    timing: &CircuitTiming,
    model_fp: u64,
    patterns: &PatternSet,
    failing_chip: &TimingInstance,
    circuit_clk: Option<f64>,
    config: &CampaignConfig,
    cache: &DictionaryCache,
    metrics: &MetricsSink,
) -> Option<BehaviorMatrix> {
    if let Some(clk) = circuit_clk {
        return Some(BehaviorMatrix::observe_with(
            circuit,
            patterns,
            failing_chip,
            clk,
            config.capture,
        ));
    }
    let n = config.sta_samples.min(150);
    metrics.add(Counter::SamplesSimulated, (n * patterns.len()) as u64);
    // The tested-delay instance draws depend only on (timing model,
    // seed): memoize them campaign-wide so the Box-Muller sampling cost
    // — the bulk of a warm observe phase — is paid once instead of once
    // per chip. Values are bit-identical to a fresh draw.
    let batch = cache.batch(model_fp, timing, config.seed ^ 0x7E57, 0, n);
    let samples = tested_delay_samples_from_batch(circuit, patterns, &batch);
    // One clock-independent capture serves every clock the policy tries.
    let observed = ObservedBehavior::capture(circuit, patterns, failing_chip, config.capture);
    match config.clock {
        ClockPolicy::TestedQuantile(q) => Some(observed.matrix_at(samples.quantile(q))),
        ClockPolicy::Sweep => sweep_ladder(&observed, &samples, config.sweep_extra_steps),
        ClockPolicy::CircuitQuantile(_) => {
            unreachable!("campaign precomputes the circuit-level clock")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ArtifactLayer;
    use sdd_netlist::generator::{generate, GeneratorConfig};
    use sdd_netlist::profiles;

    fn small_comb() -> Circuit {
        generate(&GeneratorConfig::small("camp", 21))
            .unwrap()
            .to_combinational()
            .unwrap()
    }

    /// Scalar oracle for [`tested_delay_samples`]: one instance at a
    /// time, one full-circuit walk per (sample, pattern).
    fn tested_delay_samples_scalar(
        circuit: &Circuit,
        timing: &CircuitTiming,
        patterns: &PatternSet,
        n_samples: usize,
        seed: u64,
    ) -> sdd_timing::Samples {
        assert!(n_samples > 0, "monte-carlo sample count must be positive");
        assert!(!patterns.is_empty(), "pattern set must be non-empty");
        let transitions: Vec<_> = patterns
            .iter()
            .map(|p| sdd_netlist::logic::simulate_pair(circuit, &p.v1, &p.v2))
            .collect();
        (0..n_samples)
            .map(|i| {
                let instance = timing.sample_instance_indexed(seed ^ 0x7E57, i as u64);
                let mut worst = 0.0f64;
                for t in &transitions {
                    let arr = sdd_timing::dynamic::transition_arrivals(circuit, t, &instance);
                    for &o in circuit.primary_outputs() {
                        if arr[o.index()].is_finite() {
                            worst = worst.max(arr[o.index()]);
                        }
                    }
                }
                worst
            })
            .collect()
    }

    /// Differently shaped generated circuits: the observe differential
    /// suite's shallow wide and deep sequential (scan-cut) profiles,
    /// plus s27.
    fn oracle_circuits() -> Vec<Circuit> {
        use sdd_netlist::profiles::BenchmarkProfile;
        let shallow = BenchmarkProfile {
            name: "ok-shallow",
            inputs: 9,
            outputs: 7,
            dffs: 0,
            gates: 70,
            depth: 8,
        };
        let deep = BenchmarkProfile {
            name: "ok-deep",
            inputs: 6,
            outputs: 4,
            dffs: 5,
            gates: 90,
            depth: 16,
        };
        [shallow, deep, profiles::S27]
            .into_iter()
            .map(|p| {
                generate(&p.to_config(11))
                    .unwrap()
                    .to_combinational()
                    .unwrap()
            })
            .collect()
    }

    fn oracle_timing(c: &Circuit) -> CircuitTiming {
        CircuitTiming::characterize(
            c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.04, 0.06),
        )
    }

    #[test]
    fn observe_oracle_tested_delay_samples_match_scalar() {
        for c in oracle_circuits() {
            let t = oracle_timing(&c);
            let ps = PatternSet::random(&c, 7, 5);
            for n in [1, 7, 150] {
                let bits = |s: sdd_timing::Samples| -> Vec<u64> {
                    s.values().iter().map(|v| v.to_bits()).collect()
                };
                let batched = bits(tested_delay_samples(&c, &t, &ps, n, 19));
                let scalar = bits(tested_delay_samples_scalar(&c, &t, &ps, n, 19));
                assert_eq!(batched, scalar, "{}: n = {n}", c.name());
            }
        }
    }

    /// The scalar clock sweep: one fresh per-pattern observation per
    /// ladder level, at the quantiles of the scalar tested delays.
    fn scalar_sweep(
        c: &Circuit,
        t: &CircuitTiming,
        ps: &PatternSet,
        chip: &TimingInstance,
        config: &CampaignConfig,
    ) -> Option<BehaviorMatrix> {
        let n = config.sta_samples.min(150);
        let samples = tested_delay_samples_scalar(c, t, ps, n, config.seed);
        let observe = |q: f64| {
            BehaviorMatrix::observe_with_scalar(c, ps, chip, samples.quantile(q), config.capture)
        };
        for (level, &q) in SWEEP_QUANTILES.iter().enumerate() {
            let b = observe(q);
            if !b.all_pass() {
                let extra = (level + config.sweep_extra_steps).min(SWEEP_QUANTILES.len() - 1);
                return Some(if extra > level {
                    observe(SWEEP_QUANTILES[extra])
                } else {
                    b
                });
            }
        }
        None
    }

    #[test]
    fn observe_oracle_sweep_ladder_matches_scalar_replay() {
        // The campaign's observe path (memoized chip batch, one capture,
        // re-thresholded ladder) must choose exactly the behaviour a
        // per-level scalar replay chooses, for every extra-step budget,
        // both capture models, defective chips and a chip that never
        // fails.
        let (mut chose, mut never) = (0, 0);
        for c in oracle_circuits() {
            let t = oracle_timing(&c);
            let fp = crate::store::fingerprint_model(&c, &t);
            let ps = PatternSet::random(&c, 6, 9);
            let cache = DictionaryCache::new();
            let edges: Vec<EdgeId> = c.edge_ids().collect();
            let mut chips: Vec<TimingInstance> = (0..3u64)
                .map(|i| {
                    t.sample_instance_indexed(0xC41F, i)
                        .with_extra_delay(edges[(i as usize * 7) % edges.len()], 0.3)
                })
                .collect();
            // Zero delay on every arc: nothing arrives after time 0, so
            // no ladder level can fail it.
            let mut fast = t.sample_instance_indexed(0xC41F, 9);
            for &e in &edges {
                fast.set_delay(e, 0.0);
            }
            chips.push(fast);
            for extra in [0, 2, 9] {
                for capture in [CaptureModel::TransitionArrival, CaptureModel::Waveform] {
                    let mut config = CampaignConfig::quick(13);
                    config.sweep_extra_steps = extra;
                    config.capture = capture;
                    for (i, chip) in chips.iter().enumerate() {
                        let sink = MetricsSink::new();
                        let got =
                            observe_behavior(&c, &t, fp, &ps, chip, None, &config, &cache, &sink);
                        let want = scalar_sweep(&c, &t, &ps, chip, &config);
                        assert_eq!(got, want, "{} chip {i} extra {extra} {capture:?}", c.name());
                        match got {
                            Some(_) => chose += 1,
                            None => never += 1,
                        }
                    }
                }
            }
        }
        assert!(chose > 0, "no chip ever failed a ladder level");
        assert!(never > 0, "the never-failing chip failed");
    }

    #[test]
    fn patterns_through_sites_are_generated() {
        let c = small_comb();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let mut produced = 0;
        for e in c.edge_ids().take(12) {
            let ps = patterns_through_site(&c, &t, e, 3, 8, 5);
            produced += ps.len();
            assert!(ps.len() <= 8);
        }
        assert!(produced > 0, "no pattern generated through any site");
    }

    #[test]
    fn quick_campaign_runs_and_scores() {
        let report = ArtifactLayer::new()
            .session("")
            .run_campaign(&profiles::S27, &CampaignConfig::quick(3))
            .unwrap();
        assert_eq!(report.trials, 6);
        assert_eq!(report.functions.len(), 5);
        // Monotonic in K for every function.
        for f_ix in 0..report.functions.len() {
            let mut last = -1.0;
            for k_ix in 0..report.k_values.len() {
                let rate = report.success_percent(k_ix, f_ix);
                assert!(rate >= last, "rate not monotone in K");
                last = rate;
            }
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let session = ArtifactLayer::new().session("");
        let a = session
            .run_campaign(&profiles::S27, &CampaignConfig::quick(8))
            .unwrap();
        let b = session
            .run_campaign(&profiles::S27, &CampaignConfig::quick(8))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_is_identical_across_thread_counts() {
        let c = small_comb();
        let cfg = CampaignConfig::quick(11);
        let serial = ArtifactLayer::builder()
            .num_threads(1)
            .build()
            .expect("layer builds")
            .session("")
            .run_campaign_on(&c, &cfg)
            .unwrap();
        let parallel = ArtifactLayer::builder()
            .num_threads(4)
            .build()
            .expect("layer builds")
            .session("")
            .run_campaign_on(&c, &cfg)
            .unwrap();
        assert_eq!(serial, parallel, "report must not depend on thread count");
        assert_eq!(serial.trials, cfg.n_instances);
        // The shared dictionary cache must actually be exercised.
        let m = &parallel.metrics;
        assert!(
            m.dict_cache_hits + m.dict_cache_misses > 0,
            "campaign never consulted the dictionary cache"
        );
    }

    #[test]
    fn redraws_reuse_pattern_handles_per_site() {
        // Regression: an instance exhausting its redraw budget used to
        // pay one pattern-cache lookup per *draw*; repeated sites now
        // reuse the first draw's handle, so per-chip pattern-cache
        // traffic is bounded by the number of distinct sites drawn.
        let c = generate(&profiles::S27.to_config(9))
            .unwrap()
            .to_combinational()
            .unwrap();
        let library = CellLibrary::default_025um();
        let t = CircuitTiming::characterize(&c, &library, VariationModel::default());
        let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
        // A fixed, absurdly slack clock: every draw passes, every chip
        // walks the full redraw budget.
        let cfg = CampaignConfig::quick(4).with_clock(ClockPolicy::CircuitQuantile(0.95));
        let fp = crate::store::fingerprint_model(&c, &t);
        let cache = DictionaryCache::new();
        let sink = MetricsSink::new();
        let mut saw_repeat = false;
        for index in 0..12usize {
            let seq = sink.trace_seq();
            let out =
                diagnose_instance_impl(&c, &t, fp, &model, Some(1e9), &cfg, index, &cache, &sink);
            assert!(out.is_none(), "chip {index} failed under a 1e9 clock");
            let trace = sink
                .traces_since(seq)
                .pop()
                .expect("undetected chips still trace");
            assert_eq!(trace.redraws, cfg.max_redraws as u64 - 1);
            // Replay the deterministic draw sequence to count the
            // distinct sites this chip hypothesized.
            let distinct: std::collections::HashSet<EdgeId> = (0..cfg.max_redraws)
                .map(|attempt| {
                    let defect_seed = cfg
                        .seed
                        .wrapping_add(1 + index as u64 * 131 + attempt as u64 * 7919);
                    model.sample_defect(&c, defect_seed).edge
                })
                .collect();
            let lookups = trace.pattern_cache_hits + trace.pattern_cache_misses;
            assert!(
                lookups <= distinct.len() as u64,
                "chip {index}: {lookups} pattern-cache lookups for {} distinct sites",
                distinct.len()
            );
            if distinct.len() < cfg.max_redraws {
                saw_repeat = true;
            }
        }
        assert!(
            saw_repeat,
            "no chip ever re-drew a site; pick a seed that collides to keep this test meaningful"
        );
    }

    #[test]
    fn single_instance_outcome_is_coherent() {
        let c = small_comb();
        let library = CellLibrary::default_025um();
        let t = CircuitTiming::characterize(&c, &library, VariationModel::default());
        let clk = sta::static_mc(&c, &t, 100, 1)
            .expect("static MC runs")
            .clock_at_quantile(0.95);
        let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
        let cfg = CampaignConfig::quick(4);
        if let Some(o) = diagnose_one_instance(&c, &t, &model, Some(clk), &cfg, 0) {
            assert!(o.delta > 0.0);
            assert!(o.n_patterns > 0);
            if !o.rankings.is_empty() {
                assert_eq!(o.rankings.len(), 5);
            }
        }
    }
}
