//! The two-layer diagnosis-as-a-service API: a shared [`ArtifactLayer`]
//! and lightweight per-client [`DiagnosisSession`] handles.
//!
//! The expensive parts of the paper's flow are chip-independent: ATPG
//! pattern sets and Monte-Carlo dictionary banks depend only on the
//! circuit, the configuration and the hypothesized site — never on the
//! failing chip under diagnosis. The [`ArtifactLayer`] owns exactly that
//! read-mostly state (the [`DictionaryCache`], its optional on-disk
//! [`DictionaryStore`], and the thread-pool policy) behind an `Arc`, so
//! cloning it is cheap and many clients can share one warm artifact
//! pool:
//!
//! ```no_run
//! use sdd_core::session::ArtifactLayer;
//! use sdd_core::inject::CampaignConfig;
//! use sdd_netlist::profiles;
//!
//! # fn main() -> Result<(), sdd_core::SddError> {
//! let layer = ArtifactLayer::builder().store_dir("dict-store").build()?;
//! let alice = layer.session("alice");
//! let bob = layer.session("bob");
//! // Both sessions share the layer's caches; each keeps its own metrics.
//! let report = alice.run_campaign(&profiles::S27, &CampaignConfig::quick(1))?;
//! println!("{}", report.render_table());
//! println!("{}", bob.metrics_report().counters.render());
//! # Ok(())
//! # }
//! ```
//!
//! The layer also holds one [`Design`] per (profile, seed, variation):
//! the generated, scan-cut and characterized netlist a client names, so
//! every request against the same design reuses one netlist, one timing
//! model and one model fingerprint ([`ArtifactLayer::design`]).
//!
//! A [`DiagnosisSession`] is what one client holds: a tenant id, an
//! optional kernel / [`DictionaryConfig`] override, and a private
//! [`MetricsSink`] whose committed traces are tagged with the tenant.
//! Everything a session computes through the shared layer is
//! bit-identical to a solo run — caches only memoize pure functions of
//! the request, and the screen's analytic matrices live in their own
//! cache section — so multi-tenant sharing never changes an answer, only
//! its latency.

use crate::cache::{DictionaryCache, KeyedMemo};
use crate::defect::SingleDefectModel;
use crate::diagnoser::{Diagnoser, DiagnoserConfig, RankedSite};
use crate::dictionary::{DictionaryConfig, SimKernel};
use crate::evaluate::AccuracyReport;
use crate::inject::{
    diagnose_instance_impl, run_campaign_on_with, CampaignConfig, ClockPolicy, InstanceOutcome,
};
use crate::metrics::{
    InstanceTrace, MetricsReport, MetricsSink, TraceOutcome, METRICS_SCHEMA_VERSION,
};
use crate::store::{fingerprint_model, DictionaryStore};
use crate::{BehaviorMatrix, DiagnosisError, SddError};
use sdd_atpg::PatternSet;
use sdd_netlist::generator::generate;
use sdd_netlist::profiles::{self, BenchmarkProfile};
use sdd_netlist::Circuit;
use sdd_timing::{sta, CellLibrary, CircuitTiming, Dist, VariationModel};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configures and builds an [`ArtifactLayer`]. Obtained from
/// [`ArtifactLayer::builder`].
#[derive(Debug, Default)]
pub struct ArtifactLayerBuilder {
    store_dir: Option<PathBuf>,
    num_threads: Option<usize>,
}

impl ArtifactLayerBuilder {
    /// Backs the layer's dictionary cache with an on-disk store rooted
    /// at `dir` (created if absent). Dictionary banks and pattern sets
    /// are loaded from it instead of recomputed, and checkpointed back
    /// whenever computation extends them.
    pub fn store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Runs sessions on a dedicated rayon pool of `n` threads instead
    /// of the global pool. `1` gives fully serial execution.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the layer.
    ///
    /// # Errors
    ///
    /// [`SddError::Store`] when the store directory cannot be opened;
    /// [`SddError::Config`] when the thread pool cannot be built.
    pub fn build(self) -> Result<ArtifactLayer, SddError> {
        let cache = match self.store_dir {
            Some(dir) => DictionaryCache::with_store(Arc::new(DictionaryStore::open(dir)?)),
            None => DictionaryCache::new(),
        };
        let pool = self
            .num_threads
            .map(|n| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .map_err(|e| SddError::Config(format!("thread pool: {e}")))
            })
            .transpose()?;
        Ok(ArtifactLayer {
            inner: Arc::new(LayerInner {
                cache,
                designs: KeyedMemo::default(),
                pool,
            }),
        })
    }
}

/// The environment every diagnosis of one circuit runs in: the
/// combinational netlist, its statistical timing under a variation model
/// (default 0.25 µm library), the paper's Section I defect model, the
/// model fingerprint that keys its cache entries, and the memoized
/// circuit-level clocks of [`ClockPolicy::CircuitQuantile`]. Build one
/// with [`Design::new`] or [`Design::generate`], or get the layer's
/// shared one with [`ArtifactLayer::design`].
#[derive(Debug)]
pub struct Design {
    circuit: Circuit,
    timing: CircuitTiming,
    defect_model: SingleDefectModel,
    model_fp: u64,
    /// One clock per (`sta_samples`, seed, quantile bits), `None` until
    /// its first request finishes.
    clocks: KeyedMemo<(usize, u64, u64), Option<f64>>,
}

impl Design {
    /// Characterizes the combinational `circuit` with the default
    /// 0.25 µm library under `variation` and attaches the Section I
    /// defect model — the environment of a campaign with that variation.
    pub fn new(circuit: Circuit, variation: VariationModel) -> Design {
        let library = CellLibrary::default_025um();
        let timing = CircuitTiming::characterize(&circuit, &library, variation);
        let model_fp = fingerprint_model(&circuit, &timing);
        Design {
            circuit,
            timing,
            defect_model: SingleDefectModel::paper_section_i(library.nominal_cell_delay()),
            model_fp,
            clocks: KeyedMemo::default(),
        }
    }

    /// Generates and scan-cuts `profile` at `seed`, then builds its
    /// [`Design::new`] under `variation`.
    ///
    /// # Errors
    ///
    /// Propagates circuit-generation and scan-cut errors.
    pub fn generate(
        profile: &BenchmarkProfile,
        seed: u64,
        variation: VariationModel,
    ) -> Result<Design, SddError> {
        let circuit = generate(&profile.to_config(seed))?.to_combinational()?;
        Ok(Design::new(circuit, variation))
    }

    /// The combinational (scan-cut) netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The statistical timing model.
    pub fn timing(&self) -> &CircuitTiming {
        &self.timing
    }

    /// The Section I single-defect model.
    pub fn defect_model(&self) -> &SingleDefectModel {
        &self.defect_model
    }

    /// The [`fingerprint_model`] of (circuit, timing).
    pub(crate) fn model_fp(&self) -> u64 {
        self.model_fp
    }

    /// The campaign-level clock of `config` under
    /// [`ClockPolicy::CircuitQuantile`] (the quantile of a
    /// `sta_samples`-sized static Monte-Carlo run at the campaign seed),
    /// computed at most once per key; `None` under the per-session
    /// policies, which choose their clock while observing.
    ///
    /// # Errors
    ///
    /// Static-timing errors (a circuit without outputs, zero samples).
    pub(crate) fn circuit_clk(
        &self,
        config: &CampaignConfig,
    ) -> Result<Option<f64>, DiagnosisError> {
        let ClockPolicy::CircuitQuantile(q) = config.clock else {
            return Ok(None);
        };
        let key = (config.sta_samples, config.seed, q.to_bits());
        self.clocks.with(key, |slot| {
            if slot.is_none() {
                let sta =
                    sta::static_mc(&self.circuit, &self.timing, config.sta_samples, config.seed)?;
                *slot = Some(sta.clock_at_quantile(q));
            }
            Ok(*slot)
        })
    }
}

/// Memo key of a [`Design`]: the profile name, the generator seed and
/// the variation model's `Debug` text (exact shortest-roundtrip floats,
/// as [`fingerprint_model`] hashes it).
type DesignKey = (&'static str, u64, String);

#[derive(Debug)]
struct LayerInner {
    cache: DictionaryCache,
    /// One design per [`DesignKey`], `None` until its first request
    /// finishes. Unbounded, like the cache's sections; only known
    /// profile names reach it.
    designs: KeyedMemo<DesignKey, Option<Arc<Design>>>,
    pool: Option<rayon::ThreadPool>,
}

/// The shared, read-mostly artifact pool: one [`DictionaryCache`]
/// (optionally backed by a [`DictionaryStore`]) plus the thread-pool
/// policy, behind an `Arc`. Clone-cheap; safe to share across threads,
/// and across *processes* via the sharded on-disk store.
///
/// Sessions ([`ArtifactLayer::session`]) are the per-client view; the
/// layer itself holds no per-client state and no metrics.
#[derive(Debug, Clone)]
pub struct ArtifactLayer {
    inner: Arc<LayerInner>,
}

impl Default for ArtifactLayer {
    fn default() -> Self {
        ArtifactLayer::new()
    }
}

impl ArtifactLayer {
    /// A layer with default policy: in-memory cache only, global rayon
    /// pool.
    pub fn new() -> ArtifactLayer {
        ArtifactLayer::builder()
            .build()
            .expect("default layer construction is infallible")
    }

    /// Starts configuring a layer.
    pub fn builder() -> ArtifactLayerBuilder {
        ArtifactLayerBuilder::default()
    }

    /// The shared dictionary/pattern cache.
    pub fn cache(&self) -> &DictionaryCache {
        &self.inner.cache
    }

    /// The backing dictionary store, if the layer was built with one.
    pub fn store(&self) -> Option<&Arc<DictionaryStore>> {
        self.inner.cache.store()
    }

    /// Blocks until all background checkpoints written so far —
    /// dictionary banks and pattern sets alike — are on disk. A no-op
    /// for store-less layers. Session campaign entry points call this on
    /// completion.
    pub fn sync_store(&self) {
        if let Some(store) = self.inner.cache.store() {
            store.sync();
        }
    }

    /// The design of the profile named `profile_name` at `seed` under
    /// `variation` ([`Design::generate`]), built at most once per layer:
    /// every later request for the same key gets the same `Arc`. A
    /// name no profile carries is refused before the memo is touched.
    ///
    /// # Errors
    ///
    /// [`SddError::Config`] for an unknown profile name; generation
    /// errors as [`Design::generate`] (the key then stays unbuilt).
    pub fn design(
        &self,
        profile_name: &str,
        seed: u64,
        variation: VariationModel,
    ) -> Result<Arc<Design>, SddError> {
        let profile = profiles::by_name(profile_name)
            .ok_or_else(|| SddError::Config(format!("unknown circuit profile {profile_name:?}")))?;
        let key = (profile.name, seed, format!("{variation:?}"));
        self.inner.designs.with(key, |slot| {
            if let Some(design) = slot {
                return Ok(Arc::clone(design));
            }
            let design = Arc::new(Design::generate(&profile, seed, variation)?);
            *slot = Some(Arc::clone(&design));
            Ok(design)
        })
    }

    /// Number of designs held ([`ArtifactLayer::design`]).
    pub fn num_designs(&self) -> usize {
        self.inner.designs.len()
    }

    /// Opens a session for `tenant`: a lightweight per-client handle
    /// sharing this layer's caches but owning its own [`MetricsSink`]
    /// (whose traces are tagged with the tenant id).
    pub fn session(&self, tenant: impl Into<String>) -> DiagnosisSession {
        let tenant = tenant.into();
        DiagnosisSession {
            layer: self.clone(),
            metrics: MetricsSink::for_tenant(tenant.clone()),
            tenant,
            dictionary: None,
            kernel: None,
            screen_top_k: None,
            submissions: AtomicU64::new(0),
        }
    }

    /// Runs `f` on the layer's pool (or inline when the layer uses the
    /// global pool).
    pub(crate) fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match &self.inner.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }
}

/// One client's handle onto a shared [`ArtifactLayer`]: tenant id,
/// optional kernel / [`DictionaryConfig`] override applied to every
/// request, and a private [`MetricsSink`] scratch whose committed
/// per-instance traces are tagged by tenant.
///
/// Sessions are cheap (an `Arc` clone plus a fresh sink); hold one per
/// logical client. All entry points additionally record one wall-clock
/// observation into the session-latency histogram surfaced as
/// [`crate::metrics::CampaignMetrics::session_latency`], so a session's
/// [`metrics_report`](Self::metrics_report) answers p50/p99 questions
/// about what *this* client experienced.
#[derive(Debug)]
pub struct DiagnosisSession {
    layer: ArtifactLayer,
    tenant: String,
    dictionary: Option<DictionaryConfig>,
    kernel: Option<SimKernel>,
    screen_top_k: Option<usize>,
    metrics: MetricsSink,
    submissions: AtomicU64,
}

impl DiagnosisSession {
    /// Replaces the dictionary configuration of every request this
    /// session runs (budget, seed and kernel alike).
    pub fn with_dictionary_config(mut self, dictionary: DictionaryConfig) -> Self {
        self.dictionary = Some(dictionary);
        self
    }

    /// Overrides only the simulation kernel of every request this
    /// session runs, keeping the request's Monte-Carlo budget and seed.
    /// Applied after [`with_dictionary_config`](Self::with_dictionary_config).
    pub fn with_kernel(mut self, kernel: SimKernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Overrides the analytic screen's survivor budget
    /// ([`crate::dictionary::ScreenConfig::top_k`]) of every request this
    /// session runs. Only consequential under [`SimKernel::Screened`];
    /// applied after the dictionary/kernel overrides.
    pub fn with_screen_top_k(mut self, top_k: usize) -> Self {
        self.screen_top_k = Some(top_k);
        self
    }

    /// The tenant id this session tags its traces with.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The session's kernel override, if any.
    pub fn kernel(&self) -> Option<SimKernel> {
        self.kernel
    }

    /// The session's screen top-K override, if any.
    pub fn screen_top_k(&self) -> Option<usize> {
        self.screen_top_k
    }

    /// The session's dictionary-configuration override, if any.
    pub fn dictionary_config(&self) -> Option<DictionaryConfig> {
        self.dictionary
    }

    /// The shared layer this session draws artifacts from.
    pub fn layer(&self) -> &ArtifactLayer {
        &self.layer
    }

    /// The session's private metrics sink.
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// The campaign configuration this session actually runs for
    /// `config`: the session's dictionary, kernel and screen top-K
    /// overrides applied.
    pub fn effective_config(&self, config: &CampaignConfig) -> CampaignConfig {
        CampaignConfig {
            dictionary: self.override_dictionary(config.dictionary),
            ..config.clone()
        }
    }

    /// `dictionary` with the session's overrides folded in, in their
    /// documented order: the whole config, then the kernel, then the
    /// screen's top-K. Campaigns and behaviour submits both go through
    /// here.
    fn override_dictionary(&self, dictionary: DictionaryConfig) -> DictionaryConfig {
        let mut d = self.dictionary.unwrap_or(dictionary);
        if let Some(kernel) = self.kernel {
            d.kernel = kernel;
        }
        if let Some(top_k) = self.screen_top_k {
            d.screen.top_k = top_k;
        }
        d
    }

    /// A machine-readable observability report over the session's whole
    /// lifetime, labelled `tenant:<id>`: aggregate counters, per-phase
    /// and session-latency histograms, and the (bounded) trace ring.
    /// `trials` counts every committed instance and behaviour diagnosis
    /// — including those whose pattern phase never ran.
    pub fn metrics_report(&self) -> MetricsReport {
        let counters = self.metrics.snapshot(Duration::ZERO);
        let trials = self.metrics.trace_seq();
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            circuit: format!("tenant:{}", self.tenant),
            trials,
            counters,
            traces: self.metrics.traces_since(0),
        }
    }

    /// Runs the defect-injection campaign on a profiled synthetic
    /// benchmark: builds its [`Design::generate`] at the campaign seed
    /// and variation, then runs the campaign like
    /// [`run_campaign_on`](Self::run_campaign_on).
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::ZeroSamples`] for a configuration diagnosis
    /// cannot run (refused before any work); circuit-generation errors.
    pub fn run_campaign(
        &self,
        profile: &BenchmarkProfile,
        config: &CampaignConfig,
    ) -> Result<AccuracyReport, SddError> {
        let cfg = self.checked_config(config)?;
        let design = Design::generate(profile, cfg.seed, cfg.variation)?;
        self.campaign(&design, &cfg, NonZeroUsize::MIN)
    }

    /// Runs the defect-injection campaign on an explicit combinational
    /// circuit ([`Design::new`] under the campaign's variation), through
    /// the layer's cache, store and thread pool.
    ///
    /// Chips fan out in parallel yet the report is bit-identical for any
    /// thread count, any cache population order, and whether banks were
    /// computed by this session, another tenant's, or loaded from the
    /// store. [`AccuracyReport::metrics`] carries this campaign's delta
    /// against the session sink.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::ZeroSamples`] for a configuration diagnosis
    /// cannot run (refused before any work); static-timing errors.
    /// Individual chips whose diagnosis fails are *scored* as failures,
    /// not errors.
    pub fn run_campaign_on(
        &self,
        circuit: &Circuit,
        config: &CampaignConfig,
    ) -> Result<AccuracyReport, SddError> {
        self.run_multi_defect_campaign_on(circuit, config, NonZeroUsize::MIN)
    }

    /// [`run_campaign_on`](Self::run_campaign_on) with
    /// `defects_per_chip` independent segment defects injected into
    /// every chip, diagnosed under the single-defect dictionary (paper
    /// future-work direction 3). Patterns are generated through the
    /// first defect's site; a `(K, function)` cell scores a hit when
    /// *any* injected arc is in the top `K`. `defects_per_chip = 1` is
    /// exactly [`run_campaign_on`](Self::run_campaign_on).
    ///
    /// # Errors
    ///
    /// As [`run_campaign_on`](Self::run_campaign_on).
    pub fn run_multi_defect_campaign_on(
        &self,
        circuit: &Circuit,
        config: &CampaignConfig,
        defects_per_chip: NonZeroUsize,
    ) -> Result<AccuracyReport, SddError> {
        let cfg = self.checked_config(config)?;
        let design = Design::new(circuit.clone(), cfg.variation);
        self.campaign(&design, &cfg, defects_per_chip)
    }

    /// [`effective_config`](Self::effective_config), refused by
    /// [`CampaignConfig::validate`] when diagnosis cannot run it.
    fn checked_config(&self, config: &CampaignConfig) -> Result<CampaignConfig, DiagnosisError> {
        let cfg = self.effective_config(config);
        cfg.validate()?;
        Ok(cfg)
    }

    /// The campaign behind every entry point, under an already
    /// effective configuration.
    fn campaign(
        &self,
        design: &Design,
        cfg: &CampaignConfig,
        defects_per_chip: NonZeroUsize,
    ) -> Result<AccuracyReport, SddError> {
        let start = Instant::now();
        let cache = self.layer.cache();
        let run = || run_campaign_on_with(design, cfg, defects_per_chip, cache, &self.metrics);
        let report = self.layer.install(run)?;
        // Make the campaign's checkpoints durable before reporting: a
        // caller that exits right after this call must find them on the
        // next run.
        self.layer.sync_store();
        self.metrics
            .record_session_latency(start.elapsed().as_nanos() as u64);
        Ok(report)
    }

    /// Injects, observes and diagnoses the `index`-th chip of a
    /// campaign on `design`, through the layer's cache and this
    /// session's metrics. Returns `Ok(None)` when no observable failing
    /// configuration could be drawn within the redraw budget (see
    /// [`CampaignConfig::max_redraws`]). Under
    /// [`ClockPolicy::CircuitQuantile`] the clock is the design's
    /// memoized one, shared by every chip and session of the design.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::ZeroSamples`] for a configuration diagnosis
    /// cannot run (refused before any work); static-timing errors.
    pub fn diagnose_instance(
        &self,
        design: &Design,
        config: &CampaignConfig,
        index: usize,
    ) -> Result<Option<InstanceOutcome>, DiagnosisError> {
        let start = Instant::now();
        let cfg = self.checked_config(config)?;
        let run = || -> Result<_, DiagnosisError> {
            let clk = design.circuit_clk(&cfg)?;
            Ok(diagnose_instance_impl(
                design,
                clk,
                &cfg,
                index,
                NonZeroUsize::MIN,
                self.layer.cache(),
                &self.metrics,
            ))
        };
        let outcome = self.layer.install(run)?;
        self.metrics
            .record_session_latency(start.elapsed().as_nanos() as u64);
        Ok(outcome)
    }

    /// Diagnoses an externally observed behaviour matrix — the serving
    /// entry point: a client that tested a real chip submits the applied
    /// patterns and the observed pass/fail matrix, and gets every error
    /// function's full ranking back ([`crate::ErrorFunction::EXTENDED`]
    /// order).
    ///
    /// Dictionary construction routes through the shared cache under the
    /// session's dictionary/kernel override (falling back to
    /// `DictionaryConfig::default()` when none is set), and the request
    /// is committed to the session's metrics like a campaign instance:
    /// phase histograms, an [`InstanceTrace`] tagged with the tenant,
    /// and one session-latency observation.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::NoSuspects`] when the behaviour cannot
    /// implicate any arc (including the all-pass case).
    pub fn diagnose_behavior(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        patterns: &PatternSet,
        defect_size: &Dist,
        behavior: &BehaviorMatrix,
    ) -> Result<Vec<Vec<RankedSite>>, DiagnosisError> {
        let start = Instant::now();
        let dictionary = self.override_dictionary(DictionaryConfig::default());
        let local = MetricsSink::new();
        let result: Result<Vec<Vec<RankedSite>>, _> = self.layer.install(|| {
            let all = Diagnoser::new(
                circuit,
                timing,
                patterns,
                *defect_size,
                DiagnoserConfig::new(dictionary),
            )
            .with_cache(self.layer.cache())
            .with_metrics(&local)
            .diagnose_all(behavior)?;
            Ok(all.into_iter().map(|(_, ranking)| ranking).collect())
        });
        let scratch = local.snapshot(Duration::ZERO);
        let (outcome, n_suspects) = match &result {
            Ok(rankings) => (
                TraceOutcome::Diagnosed,
                rankings.first().map_or(0, Vec::len),
            ),
            Err(_) => (TraceOutcome::DictionaryFailed, 0),
        };
        let trace = InstanceTrace {
            chip_index: self.submissions.fetch_add(1, Ordering::Relaxed),
            n_suspects: n_suspects as u64,
            n_patterns: patterns.len() as u64,
            clk: Some(behavior.clk()),
            ..InstanceTrace::new(outcome, &scratch)
        };
        self.metrics.record_instance(&scratch, trace);
        self.metrics
            .record_session_latency(start.elapsed().as_nanos() as u64);
        // The store may have gained pattern/bank checkpoints via the
        // shared cache; make them durable like the campaign paths do.
        self.layer.sync_store();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::profiles;

    #[test]
    fn sessions_share_the_layer_but_not_metrics() {
        let layer = ArtifactLayer::new();
        let cfg = CampaignConfig::quick(9);
        let alice = layer.session("alice");
        let bob = layer.session("bob");
        let first = alice.run_campaign(&profiles::S27, &cfg).unwrap();
        let second = bob.run_campaign(&profiles::S27, &cfg).unwrap();
        assert_eq!(first, second, "shared layer changed an answer");
        // Bob's session saw a warm cache…
        assert_eq!(second.metrics.dict_cache_misses, 0);
        assert_eq!(second.metrics.pattern_cache_misses, 0);
        // …and the sessions' sinks are disjoint.
        let a = alice.metrics().snapshot(Duration::ZERO);
        let b = bob.metrics().snapshot(Duration::ZERO);
        assert!(a.dict_cache_misses > 0, "alice's cold misses vanished");
        assert_eq!(b.dict_cache_misses, 0);
        assert_eq!(a.session_latency.count(), 1);
        assert_eq!(b.session_latency.count(), 1);
    }

    #[test]
    fn session_traces_carry_the_tenant_and_reports_validate() {
        let layer = ArtifactLayer::new();
        let session = layer.session("t-42");
        session
            .run_campaign(&profiles::S27, &CampaignConfig::quick(3))
            .unwrap();
        let report = session.metrics_report();
        assert_eq!(report.circuit, "tenant:t-42");
        assert!(!report.traces.is_empty());
        assert!(report.traces.iter().all(|t| t.tenant == "t-42"));
        report.validate().expect("session report validates");
        assert!(report.counters.session_latency.count() >= 1);
    }

    #[test]
    fn circuit_quantile_clock_is_memoized_once_per_key() {
        let design = Design::generate(&profiles::S27, 4, VariationModel::default()).unwrap();
        let session = ArtifactLayer::new().session("");
        // A tight clock (most of s27's defects escape at 0.95).
        let cfg = CampaignConfig::quick(4).with_clock(ClockPolicy::CircuitQuantile(0.05));
        let want = sta::static_mc(design.circuit(), design.timing(), cfg.sta_samples, cfg.seed)
            .unwrap()
            .clock_at_quantile(0.05);
        let mut observed = 0;
        for index in 0..4 {
            let outcome = session.diagnose_instance(&design, &cfg, index).unwrap();
            if let Some(o) = outcome {
                assert_eq!(o.trace.clk.map(f64::to_bits), Some(want.to_bits()));
                observed += 1;
            }
        }
        assert!(observed > 0, "no chip was observed under the circuit clock");
        assert_eq!(design.clocks.len(), 1, "one config, one clock");
        let memo = design
            .clocks
            .with((cfg.sta_samples, cfg.seed, 0.05f64.to_bits()), |c| *c);
        assert_eq!(memo.map(f64::to_bits), Some(want.to_bits()));
        // Another quantile is another key; the per-session policies
        // take no circuit clock at all.
        let tail = cfg.clone().with_clock(ClockPolicy::CircuitQuantile(0.95));
        session.diagnose_instance(&design, &tail, 0).unwrap();
        assert_eq!(design.clocks.len(), 2);
        let sweep = CampaignConfig::quick(4);
        session.diagnose_instance(&design, &sweep, 0).unwrap();
        assert_eq!(design.circuit_clk(&sweep).unwrap(), None);
        assert_eq!(design.clocks.len(), 2);
    }

    #[test]
    fn zero_sample_configs_are_refused_at_the_session_entry_points() {
        let session = ArtifactLayer::new().session("");
        let mut no_sta = CampaignConfig::quick(1);
        no_sta.sta_samples = 0;
        let mut no_mc = CampaignConfig::quick(1);
        no_mc.dictionary.n_samples = 0;
        let field = |e: SddError| match e {
            SddError::Diagnosis(DiagnosisError::ZeroSamples { field }) => field,
            other => panic!("expected a zero-samples error, got {other:?}"),
        };
        let refused = session.run_campaign(&profiles::S27, &no_sta).unwrap_err();
        assert_eq!(field(refused), "sta_samples");
        let design = Design::generate(&profiles::S27, 1, VariationModel::default()).unwrap();
        let refused = session
            .run_campaign_on(design.circuit(), &no_mc)
            .unwrap_err();
        assert_eq!(field(refused), "dictionary.n_samples");
        for (config, want) in [(&no_sta, "sta_samples"), (&no_mc, "dictionary.n_samples")] {
            match session.diagnose_instance(&design, config, 0) {
                Err(DiagnosisError::ZeroSamples { field }) => assert_eq!(field, want),
                other => panic!("expected a zero-samples error, got {other:?}"),
            }
        }
        // Refused before any work: no chip traced, no pattern set built.
        assert_eq!(session.metrics().trace_seq(), 0);
        assert_eq!(session.layer().cache().num_pattern_keys(), 0);
    }

    #[test]
    fn session_kernel_override_matches_explicit_config() {
        let layer = ArtifactLayer::new();
        let mut cfg = CampaignConfig::quick(5);
        let via_override = layer
            .session("o")
            .with_kernel(SimKernel::Screened)
            .run_campaign(&profiles::S27, &cfg)
            .unwrap();
        cfg.dictionary.kernel = SimKernel::Screened;
        let via_config = layer
            .session("c")
            .run_campaign(&profiles::S27, &cfg)
            .unwrap();
        assert_eq!(via_override, via_config);
    }
}
