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
//! A [`DiagnosisSession`] is what one client holds: a tenant id, an
//! optional kernel / [`DictionaryConfig`] override, and a private
//! [`MetricsSink`] whose committed traces are tagged with the tenant.
//! Everything a session computes through the shared layer is
//! bit-identical to a solo run — caches only memoize pure functions of
//! the request, and the analytic kernel's grids live in their own cache
//! section — so multi-tenant sharing never changes an answer, only its
//! latency.

use crate::cache::DictionaryCache;
use crate::defect::SingleDefectModel;
use crate::diagnoser::{Diagnoser, RankedSite};
use crate::dictionary::{DictionaryConfig, SimKernel};
use crate::error_fn::ErrorFunction;
use crate::evaluate::AccuracyReport;
use crate::inject::{
    diagnose_instance_impl, run_campaign_on_with, CampaignConfig, InstanceOutcome,
};
use crate::metrics::{
    InstanceTrace, MetricsReport, MetricsSink, Phase, TraceOutcome, METRICS_SCHEMA_VERSION,
};
use crate::store::DictionaryStore;
use crate::{BehaviorMatrix, DiagnosisError, SddError};
use sdd_atpg::PatternSet;
use sdd_netlist::generator::generate;
use sdd_netlist::profiles::BenchmarkProfile;
use sdd_netlist::Circuit;
use sdd_timing::{CircuitTiming, Dist};
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
            inner: Arc::new(LayerInner { cache, pool }),
        })
    }
}

#[derive(Debug)]
struct LayerInner {
    cache: DictionaryCache,
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
    /// benchmark (generates the circuit, applies the scan cut, then runs
    /// [`run_campaign_on`](Self::run_campaign_on)).
    ///
    /// # Errors
    ///
    /// Propagates circuit-generation errors.
    pub fn run_campaign(
        &self,
        profile: &BenchmarkProfile,
        config: &CampaignConfig,
    ) -> Result<AccuracyReport, SddError> {
        let circuit = generate(&profile.to_config(config.seed))?.to_combinational()?;
        self.run_campaign_on(&circuit, config)
    }

    /// Runs the defect-injection campaign on an explicit combinational
    /// circuit, through the layer's cache, store and thread pool.
    ///
    /// Chips fan out in parallel yet the report is bit-identical for any
    /// thread count, any cache population order, and whether banks were
    /// computed by this session, another tenant's, or loaded from the
    /// store. [`AccuracyReport::metrics`] carries this campaign's delta
    /// against the session sink.
    ///
    /// # Errors
    ///
    /// Returns an error for degenerate configurations; individual chips
    /// whose diagnosis fails are *scored* as failures, not errors.
    pub fn run_campaign_on(
        &self,
        circuit: &Circuit,
        config: &CampaignConfig,
    ) -> Result<AccuracyReport, SddError> {
        let start = Instant::now();
        let cfg = self.effective_config(config);
        let run = || run_campaign_on_with(circuit, &cfg, self.layer.cache(), &self.metrics);
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
    /// campaign, through the layer's cache and this session's metrics.
    /// Returns `None` when no observable failing configuration could be
    /// drawn within the redraw budget (see
    /// [`CampaignConfig::max_redraws`]).
    ///
    /// `circuit_clk` is the campaign-level clock for
    /// [`crate::inject::ClockPolicy::CircuitQuantile`]; pass `None`
    /// under the tested-quantile and sweep policies.
    pub fn diagnose_instance(
        &self,
        circuit: &Circuit,
        timing: &CircuitTiming,
        defect_model: &SingleDefectModel,
        circuit_clk: Option<f64>,
        config: &CampaignConfig,
        index: usize,
    ) -> Option<InstanceOutcome> {
        let start = Instant::now();
        let cfg = self.effective_config(config);
        let run = || {
            diagnose_instance_impl(
                circuit,
                timing,
                crate::store::fingerprint_model(circuit, timing),
                defect_model,
                circuit_clk,
                &cfg,
                index,
                self.layer.cache(),
                &self.metrics,
            )
        };
        let outcome = self.layer.install(run);
        self.metrics
            .record_session_latency(start.elapsed().as_nanos() as u64);
        outcome
    }

    /// Diagnoses an externally observed behaviour matrix — the serving
    /// entry point: a client that tested a real chip submits the applied
    /// patterns and the observed pass/fail matrix, and gets every error
    /// function's full ranking back ([`ErrorFunction::EXTENDED`] order).
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
        let result = self.layer.install(|| {
            let diagnoser = Diagnoser::new(
                circuit,
                timing,
                patterns,
                *defect_size,
                crate::diagnoser::DiagnoserConfig::new(dictionary),
            )
            .with_cache(self.layer.cache())
            .with_metrics(&local);
            let built = local.time(Phase::Dictionary, || diagnoser.build_dictionary(behavior));
            built.map(|dict| {
                local.time(Phase::Rank, || {
                    ErrorFunction::EXTENDED
                        .into_iter()
                        .map(|f| diagnoser.rank(&dict, behavior, f))
                        .collect::<Vec<_>>()
                })
            })
        });
        let scratch = local.snapshot(Duration::ZERO);
        let (outcome, n_suspects) = match &result {
            Ok(rankings) => (
                TraceOutcome::Diagnosed,
                rankings.first().map(|r| r.len()).unwrap_or(0),
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
    fn session_kernel_override_matches_explicit_config() {
        let layer = ArtifactLayer::new();
        let mut cfg = CampaignConfig::quick(5);
        let via_override = layer
            .session("o")
            .with_kernel(SimKernel::Analytic)
            .run_campaign(&profiles::S27, &cfg)
            .unwrap();
        cfg.dictionary.kernel = SimKernel::Analytic;
        let via_config = layer
            .session("c")
            .run_campaign(&profiles::S27, &cfg)
            .unwrap();
        assert_eq!(via_override, via_config);
    }
}
